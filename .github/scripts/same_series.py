"""Check that per-CP time series agree on every deterministic column.

Usage: python3 same_series.py REF.json OTHER.json [OTHER.json ...]

Each file is a `waflsim --timeseries-out` export.  Every file must have
the reference's schema and row count, and every `count` and `modeled`
cell must equal the reference's; only `measured` (wall-clock) columns
may differ.
"""
import json
import sys

ref_path, *others = sys.argv[1:]
assert others, 'usage: same_series.py REF.json OTHER.json [OTHER.json ...]'
ref = json.load(open(ref_path))
keep = [i for i, k in enumerate(ref['kinds']) if k in ('count', 'modeled')]
assert ref['rows'], '%s: no rows' % ref_path
for path in others:
    other = json.load(open(path))
    assert other['columns'] == ref['columns'] and other['kinds'] == ref['kinds'], \
        '%s: schema differs from %s' % (path, ref_path)
    assert len(other['rows']) == len(ref['rows']), \
        '%s: %d rows, %s has %d' % (path, len(other['rows']), ref_path, len(ref['rows']))
    for n, (ra, rb) in enumerate(zip(ref['rows'], other['rows'])):
        assert [ra[i] for i in keep] == [rb[i] for i in keep], \
            '%s diverged from %s at row %d' % (path, ref_path, n)
print('%d files agree on %d rows x %d deterministic columns'
      % (len(others) + 1, len(ref['rows']), len(keep)))
