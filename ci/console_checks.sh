# Checks of the wclogit console script: each run's outputs are byte-identical
# when it runs again, and bad input exits with its contract code (1 usage,
# 2 data or file, 3 numerical). It writes its files into the working
# directory, so start it in an empty one; its argument is the README whose
# library example it runs:
#
#   bash -e ci/console_checks.sh README.md
#
# CI checks the wclogit that pip installed. From a checkout, put ci/bin (a
# stand-in that runs python3 -m wclogit.cli) on PATH and src/ on PYTHONPATH.
#
# Call the three helpers below only as plain commands: bash ignores -e inside
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

# traced PREFIX FLAGS...: train on stall_train.csv with FLAGS, with and
# without its trace; both stall (converged: true), the two model files are
# one, and the trace holds the header, the start and one row per iteration
traced() {
  prefix=$1
  shift
  wclogit train stall_train.csv --beta 0.5 --zeta 0.1 --center "$@" --out "${prefix}traced.txt" --trace-out "${prefix}trace.csv" > "${prefix}traced.out"
  wclogit train stall_train.csv --beta 0.5 --zeta 0.1 --center "$@" --out "${prefix}plain.txt" > "${prefix}plain.out"
  grep -qx 'converged: true' "${prefix}traced.out"
  grep -qx 'converged: true' "${prefix}plain.out"
  cmp "${prefix}traced.txt" "${prefix}plain.txt"
  iterations=$(sed -n 's/^iterations: //p' "${prefix}traced.out")
  test "$(wc -l < "${prefix}trace.csv")" -eq $((iterations + 2))
}

# fig2 (momentum, traced) twice
twice run fig2 --max-iters 50
# the README's library example against the installed package
awk '/^```python$/ {on = 1; next} /^```$/ {on = 0} on' "$1" > example.py
test -s example.py
python -W error example.py > example.out
# its noisy labels are not separable: the fit stalls (True)
head -n 1 example.out | grep -q '^True '
# all-zero features at zeta = 0 bound no stepsize: the constant
# rule's default (1.0) trains, exit 0
printf 'label,f1,f2\n1,0,0\n0,0,0\n' > zeros.csv
wclogit train zeros.csv --beta 0.1 --out zeros_model.txt
# a non-finite feature cell is a data error: exit 2
printf 'label,f1,f2\n1,0.5,2\n0,nan,3\n' > bad.csv
exits 2 wclogit train bad.csv --beta 0.1 --out model.txt
# fig3 (the grid search of the experiments module) twice, so the module
# ships in the install
twice grid fig3 --repeats 1 --max-iters 100
# table3 (zeta up to 10, its grids skip most objectives) and fig1 twice each
twice table3 table3 --repeats 1 --max-iters 100
twice fig1 fig1 --max-iters 100
# a column sum beyond the float range under --center: exit 3
printf 'label,f1\n1,1.7e308\n0,1.7e308\n' > ovf.csv
exits 3 wclogit train ovf.csv --beta 0.1 --center --out model.txt
# a train that stalls, with and without its trace, here after 14 iterations
# under the constant rule, 35 with momentum, and 33 and 37 under
# backtracking; with momentum the iterates' margins and trace gradients are
# computed per block. The constant rule's plain.txt is the model that the
# checks below read.
wclogit generate --d 10 --n-train 300 --k 3 --noise-sigma 1.0 --amplitude normal --seed 2 --out-prefix stall
traced ""
traced acc_ --accelerate
traced bt_ --backtracking
traced bt_acc_ --backtracking --accelerate
# the installed package writes back, byte for byte, each of the eight model
# files that the four runs above wrote
models=$(ls ./*traced.txt ./*plain.txt)
test "$(echo "$models" | wc -l)" -eq 8
python -W error -c 'import sys
from wclogit.modelfile import load_model, save_model
for path in sys.argv[1:]:
    save_model(path + ".again", load_model(path))' $models
for f in $models; do cmp "$f" "$f.again"; done
# generate and predict twice each: every file byte-identical
for run in 1 2; do
  wclogit generate --d 10 --n-train 300 --k 3 --n-test 100 --noise-sigma 1.0 --amplitude normal --seed 2 --out-prefix "gen$run"
  wclogit predict plain.txt "gen${run}_test.csv" --out "pred$run.csv" > "pred$run.out"
done
for part in train.csv test.csv theta0.txt; do
  cmp "gen1_$part" "gen2_$part"
done
cmp pred1.csv pred2.csv
sed 's/pred1/pred2/' pred1.out | cmp - pred2.out
# cv on a data file, two repeats, with a stepsize that most cells
# refuse (each prints its fallback notice) twice: the grid and the
# notices byte-identical
for run in 1 2; do
  wclogit cv --data stall_train.csv --alpha 0.5 --repeats 2 --out "cv$run.csv" > "cv$run.out" 2> "cv$run.err"
done
cmp cv1.csv cv2.csv
cmp cv1.err cv2.err
grep -q '^notice: stepsize 0.5 is outside' cv1.err
# no file has a negative label column: exit 1, and no model written
exits 1 wclogit train stall_train.csv --beta 0.5 --label-col=-1 --out refused.txt
test ! -e refused.txt
# --alpha is backtracking's first stepsize too
wclogit train stall_train.csv --beta 0.5 --zeta 0.1 --center --backtracking --alpha 0.05 --out bt_alpha.txt > bt_alpha.out
grep -qx 'converged: true' bt_alpha.out
# a setting the run would not read, or one that is gone, is a usage
# error: exit 1
for flags in "--eta 0.3" "--alpha0 0.3"; do
  exits 1 wclogit train stall_train.csv --beta 0.5 --zeta 0.1 $flags --out refused.txt
done
exits 1 wclogit predict plain.txt stall_train.csv --no-labels --label-col 0 --out refused.csv
test ! -e refused.txt
test ! -e refused.csv
# --seed without a random start, --repeats for a single-run preset
# and a synthetic setting with --data: exit 1, nothing written
exits 1 wclogit train stall_train.csv --beta 0.5 --seed 3 --out refused.txt
test ! -e refused.txt
exits 1 wclogit reproduce fig1 --repeats 2 --out-dir refused_dir
test ! -e refused_dir
exits 1 wclogit cv --data stall_train.csv --n-test 5 --repeats 1 --out refused.csv
test ! -e refused.csv
# a model file whose beta the penalty refuses is a data error: exit 2
sed 's/^beta .*/beta -1.0/' plain.txt > bad_beta.txt
exits 2 wclogit certify bad_beta.txt stall_train.csv
# a number that only Python's float() or int() reads (1_0 as 10), which no
# writer writes, is a data error in a CSV and in a model file: exit 2, and
# nothing written
printf 'label,f1,f2\n1,1_0,2\n0,0.5,3\n' > underscore.csv
exits 2 wclogit train underscore.csv --beta 0.1 --out underscore_model.txt
test ! -e underscore_model.txt
sed 's/^iterations .*/iterations 1_297/' plain.txt > underscore_iterations.txt
exits 2 wclogit predict underscore_iterations.txt stall_train.csv --out underscore_pred.csv
test ! -e underscore_pred.csv
# a number flag or list entry that only Python's float() or int() reads (a
# full-width 0, 1_0 as 10) is refused as in a file: exit 1, nothing written
exits 1 wclogit train stall_train.csv --beta ０.5 --out fullwidth.txt
test ! -e fullwidth.txt
exits 1 wclogit cv --data stall_train.csv --betas 1_0 --repeats 1 --out underscore_grid.csv
test ! -e underscore_grid.csv
# a CSV that starts with a UTF-8 byte-order mark trains to the same model;
# its first column is found by its name, which the mark does not hide
printf '\357\273\277' > bom_train.csv
cat stall_train.csv >> bom_train.csv
wclogit train bom_train.csv --label-col label --beta 0.5 --zeta 0.1 --center --out bom.txt --quiet
cmp bom.txt plain.txt
# a non-finite generator setting, and one the run would not read:
# exit 1 without a traceback, and no file written
for flags in "--noise-sigma nan" "--amplitude normal --amp-low 3"; do
  exits 1 wclogit generate --d 5 --n-train 20 --k 2 $flags --out-prefix refused 2> refused.err
  test "$(grep -c Traceback refused.err)" -eq 0
  test ! -e refused_train.csv
done
# certify states the zero vector's status once, from the one verdict
# that train's threshold warning follows too
wclogit certify plain.txt stall_train.csv > certify.out
test "$(grep -c '^zero-vector status: ' certify.out)" -eq 1
