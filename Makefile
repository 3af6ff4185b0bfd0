.PHONY: all build test check bench fmt clean

all: build

build:
	dune build @all

test:
	dune runtest

# what CI runs
check: build test

bench:
	dune exec bench/main.exe -- overhead offheap

# ocamlformat is optional locally; `dune fmt` no-ops politely without it
fmt:
	-dune fmt

clean:
	dune clean
