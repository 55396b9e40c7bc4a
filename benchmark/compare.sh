#!/usr/bin/env bash
# Compare two run sets written by run.sh (A = parent, B = change) under the
# benchmark's own rules and exit non-zero on a violation:
#   - a metric that must repeat exactly for a seed (unit `count` or `sim_s`,
#     and `fail_ratio`) differs at all;
#   - an end-to-end metric is worse in B than in A by more than its bound in
#     BENCHMARK.json.
# Everything else has no bound: it is listed when it moved by more than 10 %,
# as a pointer, never as a verdict.
#
#   benchmark/compare.sh A.json B.json
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: compare.sh A.json B.json" >&2; exit 2; }
manifest="$(dirname "${BASH_SOURCE[0]}")/../BENCHMARK.json"

python3 - "$manifest" "$1" "$2" <<'EOF'
import json, sys

manifest, a, b = (json.load(open(p)) for p in sys.argv[1:4])
bounds = {m['name']: (m['better'], m['bound']) for m in manifest['end_to_end']}
EXACT_UNITS = ('count', 'sim_s')


def index(run_set):
    return {(r['workload'], r['mode']): r for r in run_set['runs']}


ia, ib = index(a), index(b)
same_seed = a['seed'] == b['seed']
if not same_seed:
    print(f'seeds differ ({a["seed"]} vs {b["seed"]}): exact metrics are not compared')
violations, moved = [], []
for key in sorted(set(ia) | set(ib)):
    if key not in ia or key not in ib:
        violations.append(f'{key[0]} {key[1]}: run missing from one set')
        continue
    ma, mb = ia[key]['metrics'], ib[key]['metrics']
    for name in sorted(set(ma) | set(mb)):
        where = f'{key[0]:14s} {name}'
        if name not in ma or name not in mb:
            violations.append(f'{where}: metric missing from one set')
            continue
        va, vb, unit = ma[name]['value'], mb[name]['value'], ma[name]['unit']
        if unit in EXACT_UNITS or name == 'fail_ratio':
            if (same_seed or name == 'fail_ratio') and va != vb:
                violations.append(f'{where}: must be equal, {va} vs {vb} {unit}')
            continue
        if va == 0:
            continue
        change = (vb - va) / va
        if name in bounds:
            better, bound = bounds[name]
            worse = change if better == 'lower' else -change
            verdict = 'VIOLATION' if worse > bound else 'ok'
            print(f'{where:40s} {va:12.4f} -> {vb:12.4f} {unit:6s} {change:+7.2%} (bound {bound:.0%}) {verdict}')
            if worse > bound:
                violations.append(f'{where}: worse by {worse:.2%}, bound {bound:.0%}')
        elif abs(change) > 0.10:
            moved.append(f'{where:52s} {va:12.4f} -> {vb:12.4f} {unit:8s} {change:+7.2%}')
if moved:
    print('\nmetrics without a bound that moved by more than 10 %:')
    print('\n'.join(moved))
if violations:
    print('\nviolations:')
    print('\n'.join(violations))
    sys.exit(1)
print('\nno violation: exact metrics are equal and every end-to-end metric is within its bound')
EOF
