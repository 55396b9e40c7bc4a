#!/usr/bin/env bash
# Smoke-test the benchmark against its manifest: every workload in both
# modes on tiny inputs (about 20 s in all), then fail unless BENCHMARK.json
# is well-formed and every workload and metric it names is emitted exactly
# once, finite, with its unit, and nothing unnamed is emitted.
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mkdir -p benchmark/out
log=benchmark/out/smoke.log
start=$SECONDS
bash benchmark/run.sh --smoke --seconds 0.3 > "$log"
echo "smoke run took $((SECONDS - start)) s"

python3 - "$log" <<'EOF'
import json, math, re, sys

NAME = re.compile(r'^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$')
UNIT = re.compile(r'^[A-Za-z0-9_/%.-]{1,16}$')
errors = []


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    for k in set(keys):
        if keys.count(k) > 1:
            errors.append(f'`{k}` appears {keys.count(k)} times in one object')
    return dict(pairs)


def expect(ok, what):
    if not ok:
        errors.append(what)


manifest = json.load(open('BENCHMARK.json'), object_pairs_hook=no_duplicates)
expect(set(manifest) == {'command', 'paths', 'run_seconds', 'workloads', 'end_to_end', 'per_layer'},
       f'BENCHMARK.json keys: {sorted(manifest)}')
expect(manifest['paths'] == ['benchmark'], 'paths must be ["benchmark"]')
expect(isinstance(manifest['run_seconds'], int) and 1 <= manifest['run_seconds'] <= 60, 'run_seconds')
expect(2 <= len(manifest['workloads']) <= 8, 'workload count')
expect(1 <= len(manifest['end_to_end']) <= 16, 'end_to_end count')
expect(1 <= len(manifest['per_layer']) <= 128, 'per_layer count')
names = []
for w in manifest['workloads']:
    expect(set(w) == {'name', 'why'}, f'workload keys: {w}')
    expect(len(w['why']) <= 200 and '\n' not in w['why'], f'why of {w["name"]}')
    names.append(w['name'])
for m in manifest['end_to_end']:
    expect(set(m) == {'name', 'unit', 'better', 'bound'}, f'end_to_end keys: {m}')
    expect(0 <= m['bound'] <= 0.25, f'bound of {m["name"]}')
for m in manifest['per_layer']:
    expect(set(m) == {'name', 'unit', 'better'}, f'per_layer keys: {m}')
for m in manifest['end_to_end'] + manifest['per_layer']:
    expect(m['better'] in ('lower', 'higher'), f'better of {m["name"]}')
    expect(UNIT.match(m['unit']), f'unit of {m["name"]}: {m["unit"]}')
    names.append(m['name'])
for n in names:
    expect(NAME.match(n), f'name `{n}`')
    expect(names.count(n) == 1, f'name `{n}` used {names.count(n)} times')
expect(any(m['name'] == 'setup_s' and m['unit'] == 's' and m['better'] == 'lower'
           for m in manifest['end_to_end']), 'setup_s missing')

# The smoke log holds, per workload, the untraced run and then the traced
# run; each run's last line is its result.
header = re.compile(r'^workload (\S+) seed \d+ seconds \S+ trace ([01]) ')
runs, current = {}, None
for line in open(sys.argv[1]):
    h = header.match(line)
    if h:
        current = (h.group(1), int(h.group(2)))
        expect(current not in runs, f'{current} ran twice')
        runs[current] = {'printed': [], 'result': None}
    elif current and line.startswith('metric '):
        runs[current]['printed'].append(line.split()[2])
    elif current and line.startswith('{'):
        runs[current]['result'] = json.loads(line, object_pairs_hook=no_duplicates)

for w in manifest['workloads']:
    for trace, section in ((0, 'end_to_end'), (1, 'per_layer')):
        run = runs.pop((w['name'], trace), None)
        where = f'{w["name"]} --trace {trace}'
        if run is None or run['result'] is None:
            errors.append(f'{where}: no result line')
            continue
        result = run['result']
        expect(set(result) == {'correct', 'attempted', 'failed', 'metrics'}, f'{where}: keys {sorted(result)}')
        expect(result['correct'] is True and result['failed'] == 0, f'{where}: not correct: {result["failed"]} failed')
        expect(isinstance(result['attempted'], int) and result['attempted'] >= 1, f'{where}: attempted')
        want = {m['name']: m['unit'] for m in manifest[section]}
        got = result['metrics']
        expect(set(got) == set(want),
               f'{where}: missing {sorted(set(want) - set(got))}, unnamed extras {sorted(set(got) - set(want))}')
        for name, m in got.items():
            expect(set(m) == {'value', 'unit'}, f'{where}: {name} keys {sorted(m)}')
            expect(isinstance(m['value'], (int, float)) and math.isfinite(m['value']), f'{where}: {name} not finite')
            expect(m['unit'] == want.get(name), f'{where}: {name} unit {m["unit"]}, manifest {want.get(name)}')
            if trace == 0:
                expect(m['value'] > 0, f'{where}: end-to-end metric {name} is {m["value"]}')
        for name in set(run['printed']):
            expect(run['printed'].count(name) == 1, f'{where}: {name} printed {run["printed"].count(name)} times')
        if trace == 1:
            trace_file = json.load(open(f'benchmark/out/{w["name"]}.trace.json'))
            expect(len(trace_file['traceEvents']) > 0, f'{where}: empty trace file')
expect(not runs, f'runs of workloads BENCHMARK.json does not name: {sorted(runs)}')

for e in errors:
    print('check.sh:', e, file=sys.stderr)
if errors:
    sys.exit(1)
print(f'check.sh: {len(manifest["workloads"])} workloads, {len(manifest["end_to_end"])} end-to-end and '
      f'{len(manifest["per_layer"])} per-layer metrics: manifest and output agree')
EOF
