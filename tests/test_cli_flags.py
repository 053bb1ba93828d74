"""Every command-line flag is either read or refused.

For each command and each of its modes (one tiny base run per mode), every
optional flag is given one value that would change the run's output if the
run read it.  The run must then either be refused (exit 1, "does not
apply", nothing written) or produce another outcome than the base run:
another exit code, stdout, stderr or written file.  A flag a command
gains must be given a value here, so a setting that the run silently
ignores cannot slip in.
"""

import argparse
import math

import pytest

from wclogit.cli import _integer, _real, _real_list, build_parser, main

# one value per flag of each command, chosen so that reading it changes the
# outcome of every base run below; a flag with no value tokens is a switch
VALUES = {
    "train": {
        "--sparse-format": [], "--num-features": ["4"], "--label-col": ["1"],
        "--pm1-labels": [], "--header": ["no"], "--beta": ["0.05"], "--zeta": ["0.3"],
        "--alpha": ["0.01"], "--backtracking": [], "--eta": ["0.9"], "--accelerate": [],
        "--eps-tol": ["0.5"], "--max-iters": ["3"], "--init": ["small-random"],
        "--add-intercept": [], "--center": [], "--seed": ["7"], "--out": ["other.txt"],
        "--trace-out": ["t.csv"], "--quiet": [],
    },
    "predict": {
        "--sparse-format": [], "--num-features": ["4"], "--label-col": ["1"],
        "--pm1-labels": [], "--header": ["no"], "--no-labels": [], "--out": ["q.csv"],
        "--quiet": [],
    },
    "certify": {
        "--sparse-format": [], "--num-features": ["4"], "--label-col": ["1"],
        "--pm1-labels": [], "--header": ["no"], "--threshold-only": [],
    },
    "cv": {
        "--data": ["{train}"], "--sparse-format": [], "--num-features": ["4"],
        "--label-col": ["1"], "--pm1-labels": [], "--header": ["no"], "--betas": ["0.2"],
        "--zetas": ["0.5"], "--repeats": ["2"], "--seed": ["3"], "--alpha": ["1e-12"],
        "--eps-tol": ["0.5"], "--max-iters": ["2"], "--test-fraction": ["0.5"],
        "--validation-fraction": ["0.5"], "--d": ["3"], "--n-train": ["15"], "--k": ["1"],
        "--n-test": ["5"], "--latent-dim": ["2"], "--noise-sigma": ["2"],
        "--amplitude": ["uniform"], "--out": ["h.csv"], "--quiet": [],
    },
    "generate": {
        "--d": ["3"], "--n-train": ["8"], "--k": ["1"], "--n-test": ["3"],
        "--latent-dim": ["2"], "--amplitude": ["normal"], "--amp-low": ["1"],
        "--amp-high": ["20"], "--noise-sigma": ["50"], "--clean-test-labels": [],
        "--seed": ["3"], "--out-prefix": ["t"], "--quiet": [],
    },
    "reproduce": {
        "--out-dir": ["s"], "--max-iters": ["3"], "--repeats": ["2"], "--quiet": [],
    },
}

_TRAIN = ["train", "{train}", "--beta", "0.1", "--max-iters", "8", "--out", "m.txt"]
_CV = ["cv", "--betas", "0.1", "--zetas", "0", "--repeats", "1", "--max-iters", "5",
       "--out", "g.csv"]
_GENERATE = ["generate", "--d", "4", "--n-train", "10", "--k", "2", "--out-prefix", "s"]

# the base run of each mode; "{train}" and its peers name the input files
MODES = {
    "train-constant": _TRAIN,
    "train-backtracking": _TRAIN + ["--backtracking"],
    "train-small-random": _TRAIN + ["--init", "small-random"],
    "train-backtracking-small-random": _TRAIN + ["--backtracking", "--init", "small-random"],
    "predict-labels": ["predict", "{model}", "{test}", "--out", "p.csv"],
    "predict-no-labels": ["predict", "{model}", "{features}", "--no-labels", "--out", "p.csv"],
    "certify": ["certify", "{model}", "{train}"],
    "cv-data": _CV + ["--data", "{train}"],
    "cv-synthetic": _CV + ["--d", "4", "--n-train", "20", "--k", "2", "--n-test", "200"],
    "generate-train-only": _GENERATE,
    "generate-test": _GENERATE + ["--n-test", "20"],
    "generate-test-noise": _GENERATE + ["--n-test", "20", "--noise-sigma", "2"],
    "generate-normal": _GENERATE + ["--amplitude", "normal"],
    "reproduce-fig1": ["reproduce", "fig1", "--max-iters", "5", "--out-dir", "r"],
    "reproduce-fig3": ["reproduce", "fig3", "--repeats", "1", "--max-iters", "5",
                       "--out-dir", "r"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A labeled train and test CSV, the test features alone under a header
    row, and a model trained on the train CSV."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(["generate", "--d", "4", "--n-train", "30", "--k", "2", "--n-test", "10",
                 "--noise-sigma", "0.5", "--seed", "1", "--quiet",
                 "--out-prefix", str(root / "data")]) == 0
    test = root / "data_test.csv"
    features = root / "features.csv"
    features.write_text("".join(line.split(",", 1)[1] + "\n"
                                for line in test.read_text().splitlines()))
    model = root / "model.txt"
    assert main(["train", str(root / "data_train.csv"), "--beta", "0.1", "--zeta", "0.2",
                 "--max-iters", "20", "--out", str(model), "--quiet"]) == 0
    return {"train": str(root / "data_train.csv"), "test": str(test),
            "features": str(features), "model": str(model)}


def _outcome(argv, workdir, monkeypatch, capsys):
    """Exit code, stdout, stderr and every path the run leaves in the empty
    ``workdir`` (a file with its bytes, a directory with None)."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(argv)
    out, err = capsys.readouterr()
    written = {str(path.relative_to(workdir)): path.read_bytes() if path.is_file() else None
               for path in sorted(workdir.rglob("*"))}
    return code, out, err, written


def _gives(argv, tokens) -> bool:
    """Whether ``argv`` already holds ``tokens`` in a row."""
    return any(argv[i:i + len(tokens)] == tokens for i in range(len(argv)))


@pytest.mark.parametrize("mode", MODES)
def test_every_flag_is_read_or_refused(mode, inputs, tmp_path, monkeypatch, capsys):
    base = [token.format(**inputs) for token in MODES[mode]]
    command = base[0]
    values = VALUES[command]
    subparser = build_parser().parse_args(base).parser
    flags = {option for action in subparser._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert flags == set(values), "give every flag of the command a value above"

    expected = _outcome(base, tmp_path / "base", monkeypatch, capsys)
    assert expected[0] == 0, expected[2]
    ignored = []
    for flag, value in values.items():
        tokens = [flag] + [token.format(**inputs) for token in value]
        if _gives(base, tokens):
            continue  # the base run sets this value already
        code, out, err, written = _outcome(base + tokens, tmp_path / flag[2:],
                                           monkeypatch, capsys)
        if code != 0:  # a refused or failed run leaves nothing behind
            assert written == {}, flag
        if code == 1 and f"error: {flag} does not apply " in err:
            assert out == "", flag
        elif (code, out, err, written) == expected:
            ignored.append(flag)
    assert ignored == [], f"{mode} runs ignore {ignored}"


# --- the number census ---------------------------------------------------------

# a run of each command that a number flag's refused value stops before any
# file is read or written
NUMBER_BASES = {
    "train": ["train", "{train}", "--beta", "0.1"],
    "predict": ["predict", "{model}", "{test}"],
    "certify": ["certify", "{model}", "{train}"],
    "cv": ["cv", "--data", "{train}"],
    "generate": ["generate", "--d", "4", "--n-train", "10", "--k", "2"],
    "reproduce": ["reproduce", "fig1"],
}

def _typed_options():
    """``(command, flag, type)`` of every option that converts its value."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return [(command, action.option_strings[0], action.type)
            for command, parser in commands.items() for action in parser._actions
            if action.type is not None]


def test_every_number_flag_reads_the_file_number_grammar():
    # Python's float() and int() also read 1_0 and non-ASCII digits; no flag
    # may use them directly
    types = {kind for _, _, kind in _typed_options()}
    assert float not in types and int not in types
    assert types == {_real, _integer, _real_list}
    assert set(NUMBER_BASES) == {command for command, _, _ in _typed_options()}


def test_number_flags_read_what_float_and_int_read_in_the_grammar():
    # values the library's own checks refuse still reach them as before
    for text in ("0.5", " 5", "+2", "-1", "1e400", "-inf", "1e-320"):
        assert _real(text) == float(text)
    assert math.isnan(_real("nan"))
    for text in ("7", " 5", "+2", "-1", "0", "10000000000000000000000000000000"):
        assert _integer(text) == int(text)
    for text in ("2.5", "1e3", "", "x"):
        with pytest.raises(ValueError):
            _integer(text)


@pytest.mark.parametrize("token", ["1_0", "\uff12", "\u0663"])
@pytest.mark.parametrize("command, flag, kind", _typed_options())
def test_a_number_flag_refuses_what_only_python_reads(command, flag, kind, token, inputs,
                                                      tmp_path, monkeypatch, capsys):
    # float() reads these as 10, 2 and 3; the flag refuses them as a file
    # does: exit 1, the flag named, nothing written
    argv = [part.format(**inputs) for part in NUMBER_BASES[command]] + [flag, token]
    code, out, err, written = _outcome(argv, tmp_path / "run", monkeypatch, capsys)
    assert (code, out, written) == (1, "", {})
    name = {_real: "float", _integer: "int", _real_list: "list"}[kind]  # argparse's words
    assert err.endswith(f"error: argument {flag}: invalid {name} value: {token!r}\n")
