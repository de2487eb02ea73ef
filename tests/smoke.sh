#!/usr/bin/env bash
# Smoke checks of the maddpp command line, run end to end: every command,
# the exit codes of refused inputs, a BOM, a pipe, an ASCII locale and
# non-ASCII paths, and 200k-record runs checked from outside by
# perfbench/outputs.py.  It writes ci/ under the current directory, which
# must not hold one yet.
#
#   MADDPP=maddpp bash tests/smoke.sh                    # the installed script
#   MADDPP="python -m maddpp.cli" PYTHONPATH=src bash tests/smoke.sh
#
# PYTHON (default python3) runs the output checks.
set -euo pipefail
: "${MADDPP:?set MADDPP to the command that runs maddpp}"
PYTHON=${PYTHON:-python3}
PERFBENCH=$(cd "$(dirname "${BASH_SOURCE[0]}")/../perfbench" && pwd)

# Python code with perfbench's output checks and course generator importable
bench() { PYTHONPATH="$PERFBENCH${PYTHONPATH:+:$PYTHONPATH}" "$PYTHON" -c "$1"; }

$MADDPP --out-dir ci simulate --n-g0 200 --n-g1 200
$MADDPP --out-dir ci madd ci/records.csv
$MADDPP --out-dir ci fip ci/records.csv --lambda 0.5
$MADDPP --out-dir ci sweep ci/records.csv --grid 11
# 400 records and m = 100003 knots: fewer records than knots, where the bins' and the
# inverse's searches fall back to np.searchsorted, checked from outside
$MADDPP --out-dir ci/m100003/fip fip ci/records.csv --lambda 0.5 --m 100003
$MADDPP --out-dir ci/m100003/sweep sweep ci/records.csv --m 100003 --grid 11
bench "import outputs; r = outputs.read_records('ci/records.csv'); outputs.check_fip('ci/m100003/fip/fip.csv', r); outputs.check_sweep('ci/m100003/sweep/sweep.csv', 'ci/m100003/sweep/sweep.json', 0.5, 11, r, 0.5, 100003)"
# a records file that starts with a UTF-8 BOM reads as the same records, under an ASCII locale too
{ printf '\357\273\277'; cat ci/records.csv; } > ci/records_bom.csv
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 $MADDPP --out-dir ci/bom madd ci/records_bom.csv
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 $MADDPP --out-dir ci/bom sweep ci/records_bom.csv --grid 11
cmp ci/madd.json ci/bom/madd.json
cmp ci/sweep.csv ci/bom/sweep.csv
# the same records through a pipe, which the row parser reads, give the same MADD
# (a `< file` redirect would hand /dev/stdin over as the regular file itself)
cat ci/records.csv | $MADDPP --out-dir ci/pipe madd /dev/stdin
cmp ci/madd.json ci/pipe/madd.json
# a bad label is refused even where another row's label is empty
printf 'proba,group,label\n0.2,0,7\n0.7,1,\n0.4,0,0\n0.9,1,1\n' > ci/bad_label.csv
code=0; $MADDPP --out-dir ci/bad madd ci/bad_label.csv || code=$?
test "$code" -eq 11
# the header alone says whether records are labelled: under a label column an empty label is refused
printf 'proba,group,label\n0.2,0,1\n0.7,1,\n' > ci/empty_label.csv
code=0; $MADDPP --out-dir ci/bad madd ci/empty_label.csv || code=$?
test "$code" -eq 11
# and a proba,group file is unlabelled: madd reads it, sweep needs labels
printf 'proba,group\n0.2,0\n0.7,1\n' > ci/unlabelled.csv
$MADDPP --out-dir ci/unlabelled madd ci/unlabelled.csv
code=0; $MADDPP --out-dir ci/unlabelled sweep ci/unlabelled.csv || code=$?
test "$code" -eq 19
# a write that fails after its file is opened names that file
mkdir -p ci/full && ln -s /dev/full ci/full/madd.json
code=0; $MADDPP --out-dir ci/full madd ci/records.csv 2> ci/full.err || code=$?
test "$code" -eq 26
grep -F 'cannot write ci/full/madd.json: ' ci/full.err
# a sweep well above the tests' 20k records, where the rank tables are largest
$MADDPP --out-dir ci/big simulate --n-g0 100000 --n-g1 100000
$MADDPP --out-dir ci/big sweep ci/big/records.csv --m 500 --grid 1000
bench "import outputs; outputs.check_sweep('ci/big/sweep.csv', 'ci/big/sweep.json', 0.5, 1000, outputs.read_records('ci/big/records.csv'), 0.5, 500)"
# the same records with the threshold off a knot (306.5/500), into a directory of its own
$MADDPP --out-dir ci/big/t0613 sweep ci/big/records.csv --m 500 --grid 1000 --t 0.613
bench "import outputs; outputs.check_sweep('ci/big/t0613/sweep.csv', 'ci/big/t0613/sweep.json', 0.5, 1000, outputs.read_records('ci/big/records.csv'), 0.613, 500)"
# madd and fip on the same 200k records, the bulk benchmark's size, checked from outside
$MADDPP --out-dir ci/big madd ci/big/records.csv
$MADDPP --out-dir ci/big fip ci/big/records.csv --lambda 0.97
bench "import outputs; r = outputs.read_records('ci/big/records.csv'); outputs.check_madd('ci/big/madd.json', r, 100); outputs.check_fip('ci/big/fip.csv', r)"
bench "import coursegen; coursegen.generate('ci/course.csv', 7, 2000)"
$MADDPP --out-dir ci pipeline ci/course.csv --sensitive gender
# model.json is the weights and bias on the encoded features alone
"$PYTHON" -c "import json; assert sorted(json.load(open('ci/model.json'))) == ['bias', 'feature_names', 'weights']"
"$PYTHON" -c "import json, os; ms = [json.load(open(f'ci/{c}.manifest.json')) for c in ('simulate', 'madd', 'fip', 'sweep', 'pipeline')]; assert all(os.path.isfile(f) for m in ms for f in m['inputs'] + m['outputs']); assert 'label_column' in ms[-1]['config']"
# a non-ASCII option value names its UTF-8 header under an ASCII locale too
"$PYTHON" -c "import pathlib; c = pathlib.Path('ci/course.csv').read_bytes(); pathlib.Path('ci/course_fr.csv').write_bytes(c.replace(b'gender', b'r\xc3\xa9gion', 1))"
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 $MADDPP --out-dir ci/fr pipeline ci/course_fr.csv --sensitive région
"$PYTHON" -c "import json; assert json.load(open('ci/fr/pipeline.manifest.json'))['config']['sensitive'] == 'r\u00e9gion'"
# a non-ASCII input path is recorded as its UTF-8 text under an ASCII locale too
cp ci/course.csv ci/cours_é.csv
LC_ALL=C PYTHONCOERCECLOCALE=0 PYTHONUTF8=0 $MADDPP --out-dir ci/path pipeline ci/cours_é.csv --sensitive gender
"$PYTHON" -c "import json; assert json.load(open('ci/path/pipeline.manifest.json'))['inputs'] == ['ci/cours_\u00e9.csv']"
