# Checks of the wclogit console script that only the installed entry point
# can show. What a run must give (exit code, message, files) is pinned in the
# pytest suite (Tier-1), and ci/bits.py shows which outputs a change moves;
# a check belongs here only if an install could break it:
#
# - each reproduce preset, run twice and byte-compared, which also proves
#   that the experiments module ships;
# - the README's library example against the installed package;
# - generate, predict and cv, run twice and compared across processes: one
#   pytest process cannot show a dependence on the hash seed;
# - one probe each for exit codes 1 (usage), 2 (data or file) and 3
#   (numerical) through the [project.scripts] wrapper, the only code Tier-1
#   never runs.
#
# It writes its files into the working directory, so start it in an empty
# one; its argument is the README whose library example it runs:
#
#   bash -e ci/console_checks.sh README.md
#
# CI checks the wclogit that pip installed. From a checkout, put ci/bin (a
# stand-in that runs python3 -m wclogit.cli) on PATH and src/ on PYTHONPATH.
#
# Call the two helpers below only as plain commands: bash ignores -e inside
# a function called from if, while, && or ||, so a failed check there would
# pass unseen.
set -e

# exits N CMD...: CMD exits with code N
exits() {
  want=$1
  shift
  code=0
  "$@" || code=$?
  test "$code" -eq "$want"
}

# twice NAME PRESET...: reproduce PRESET into NAME1/ and NAME2/; stdout with
# the directory names aside, stderr, the file list and every file agree
twice() {
  name=$1
  shift
  wclogit reproduce "$@" --out-dir "${name}1" > "${name}1.out" 2> "${name}1.err"
  wclogit reproduce "$@" --out-dir "${name}2" > "${name}2.out" 2> "${name}2.err"
  sed "s/${name}1/${name}2/" "${name}1.out" | cmp - "${name}2.out"
  cmp "${name}1.err" "${name}2.err"
  test "$(ls "${name}1")" = "$(ls "${name}2")"
  test -n "$(ls "${name}1")"
  for f in "${name}1"/*; do cmp "$f" "${name}2/${f#${name}1/}"; done
}

# the four presets; fig2 is traced with momentum, fig3 and table3 are the
# grid searches, table3's zeta up to 10 (its grids skip most objectives)
twice fig1 fig1 --max-iters 100
twice fig2 fig2 --max-iters 50
twice fig3 fig3 --repeats 1 --max-iters 100
twice table3 table3 --repeats 1 --max-iters 100
# the README's library example; its noisy labels are not separable, so the
# fit stalls (True)
awk '/^```python$/ {on = 1; next} /^```$/ {on = 0} on' "$1" > example.py
test -s example.py
python -W error example.py > example.out
head -n 1 example.out | grep -q '^True '
# generate, predict and cv twice each, every file and output byte-identical;
# the cv stepsize is one that most cells refuse, each with its notice
for run in 1 2; do
  wclogit generate --d 10 --n-train 300 --k 3 --n-test 100 --noise-sigma 1.0 --amplitude normal --seed 2 --out-prefix "gen$run"
done
for part in train.csv test.csv theta0.txt; do
  cmp "gen1_$part" "gen2_$part"
done
wclogit train gen1_train.csv --beta 0.5 --zeta 0.1 --center --out model.txt --quiet
for run in 1 2; do
  wclogit predict model.txt "gen${run}_test.csv" --out "pred$run.csv" > "pred$run.out"
  wclogit cv --data "gen${run}_train.csv" --alpha 0.5 --repeats 2 --out "cv$run.csv" > "cv$run.out" 2> "cv$run.err"
done
cmp pred1.csv pred2.csv
sed 's/pred1/pred2/' pred1.out | cmp - pred2.out
cmp cv1.csv cv2.csv
sed 's/cv1/cv2/' cv1.out | cmp - cv2.out
cmp cv1.err cv2.err
grep -q '^notice: stepsize 0.5 is outside' cv1.err
# each exit code through the entry point, and no model written: a seed
# without a random start (1), a non-finite feature (2), and a column sum
# beyond the float range under --center (3)
exits 1 wclogit train gen1_train.csv --beta 0.5 --seed 3 --out refused.txt
printf 'label,f1,f2\n1,0.5,2\n0,nan,3\n' > nan.csv
exits 2 wclogit train nan.csv --beta 0.1 --out refused.txt
printf 'label,f1\n1,1.7e308\n0,1.7e308\n' > overflow.csv
exits 3 wclogit train overflow.csv --beta 0.1 --center --out refused.txt
test ! -e refused.txt
