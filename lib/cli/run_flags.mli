(** The command-line form of a {!Wafl_core.Config.run}: the eight run
    flags every [waflsim] subcommand takes, parsed by one term and
    checked by one {!Wafl_core.Config.validate}.  A bad value — an
    unusable mmap directory, an unparsable fault spec, or a setting out
    of range — fails the command line with exit code 124 before anything
    runs.

    {!Wafl_core.Config.run_args} prints exactly the flags this term
    parses back into the same run. *)

val term : Wafl_core.Config.run Cmdliner.Term.t
(** [--mmap], [--jobs], [--alloc-domains], [--scrub-rate],
    [--fault-spec], [--temp-classes], [--streams], [--wear-bias]; each
    omitted flag takes its {!Wafl_core.Config.default_run} value.  An
    [--mmap DIR] is prepared when parsed: a missing directory is
    created, one that exists must be a writable directory. *)
