import csv
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lumirend.algorithms import builtin
from lumirend.cli import main
from lumirend.schedules import Schedule
from lumirend.verify import ScalingLoopCertificate, replay_paper_counterexample, validate_certificate
from random_schedules import random_lc_atomic_schedule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_simultaneous_rounds(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--alg", "ss3", "--schedule", "sim", "--init", "A,A",
        "--dist", "1", "--rigid", "--class", "ssync", "--horizon", "8",
    )
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert lines[-1]["distance"] == "0/1"


def test_run_divergent_schedule_file(tmp_path, capsys):
    res = replay_paper_counterexample("lemma6_alg_a")
    sched_file = tmp_path / "loop.json"
    sched_file.write_text(res.schedule.to_json())
    code, out, err = run_cli(
        capsys, "run", "--alg", "alg_a", "--schedule", str(sched_file),
        "--init", "B,C", "--dist", "1", "--rigid", "--class", "lc-atomic,move-atomic",
    )
    assert code == 2
    cert = ScalingLoopCertificate.from_json(err)
    assert cert.ratio == Fraction(1, 4)


def test_run_split_moves_past_a_block(tmp_path, capsys):
    # candidate blocks between cycle starts can hold an MB whose ME falls
    # after the block; the engine rejects such a block and the search skips it
    sched_file = tmp_path / "split.json"
    fractions = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    sched_file.write_text(random_lc_atomic_schedule(random.Random(1), 40, fractions).to_json())
    code, _out, err = run_cli(
        capsys, "run", "--alg", "qss4", "--schedule", str(sched_file), "--init", "A,A",
        "--class", "async,lc-atomic", "--nonrigid", "--delta", "1/8", "--horizon", "40",
    )
    assert code in (2, 3)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "prefix, message",
    [
        # the horizon cuts the split move between its MB and its ME
        ([{"t": 1, "ops": ["LC", "-"]}, {"t": 2, "ops": ["MB", "-"]}, {"t": 5, "ops": ["ME", "-"]}],
         "MB at t=2 without a later ME"),
        # a move with no Look-Compute before it: an illegal schedule
        ([{"t": 1, "ops": ["M", "-"]}], "op M illegal in phase idle at t=1"),
    ],
)
def test_run_reports_engine_errors(tmp_path, capsys, prefix, message):
    sched_file = tmp_path / "bad.json"
    sched_file.write_text(json.dumps({"prefix": prefix}))
    code, out, err = run_cli(
        capsys, "run", "--alg", "ss3", "--init", "A,A", "--class", "async,lc-atomic",
        "--horizon", "3", "--schedule", str(sched_file),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_run_zero_distance_start(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A",
        "--dist", "0", "--rigid", "--class", "lc-atomic,move-atomic",
    )
    assert code == 0
    assert out == ""  # met at the start: nothing to execute


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_run_rejects_a_non_positive_horizon(capsys, horizon):
    code, out, err = run_cli(
        capsys, "run", "--alg", "ss3", "--schedule", "sim", "--init", "A,A",
        "--dist", "1", "--class", "ssync", "--horizon", horizon,
    )
    assert (code, out, err) == (1, "", "error: horizon must be at least 1\n")


def test_run_rejects_decimal_rationals(capsys):
    code, _out, err = run_cli(
        capsys, "run", "--alg", "ss3", "--schedule", "sim", "--init", "A,A",
        "--dist", "0.5", "--class", "ssync",
    )
    assert code == 1
    assert "p/q" in err


def test_run_is_byte_deterministic(capsys):
    args = (
        "run", "--alg", "qss4", "--schedule", "alt", "--init", "A,A",
        "--dist", "1", "--nonrigid", "--delta", "1/4", "--class", "lc-atomic",
        "--horizon", "24",
    )
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_verify_single_init(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "--alg", "nonqss3", "--class", "lc-atomic", "--rigid",
        "--init", "B,B", "--horizon", "40",
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"]["kind"] == "diverges"
    assert report["verdict"]["certificate"]["ratio"] == "1/1"


def test_verify_classification_qss4(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "--alg", "qss4", "--class", "lc-atomic",
        "--nonrigid", "--delta", "1/4", "--horizon", "60",
    )
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "quasi-self-stabilizing"
    assert report["same_color"]["A"]["kind"] == "rendezvous"
    assert report["mixed"]["A,C"]["kind"] == "diverges"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--alg", "ss3", "--class", "ssync", "--init", "A,A"),
        ("verify", "--alg", "ss3", "--class", "ssync"),
        ("enumerate", "--colors", "1", "--class", "ssync", "--horizon", "8"),
    ],
)
def test_searches_reject_a_negative_distance(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--dist", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: initial distance must be non-negative\n"


@pytest.mark.parametrize(
    "argv, default, code",
    [
        (("verify", "--alg", "ss3", "--init", "A,A", "--horizon", "8"), "async,lc-atomic", 2),
        (("verify", "--alg", "ss3", "--horizon", "8"), "async,lc-atomic", 0),
        (("enumerate", "--colors", "1", "--horizon", "8"), "async,lc-atomic", 0),
        # plain asynchrony forbids the LC ops of `sim`
        (("run", "--alg", "ss3", "--schedule", "sim", "--init", "A,A", "--horizon", "8"), "async", 1),
    ],
)
def test_default_class(capsys, monkeypatch, argv, default, code):
    # the search commands default to the class the search explores
    result = run_cli(capsys, *argv)
    assert result == run_cli(capsys, *argv, "--class", default)
    assert result[0] == code
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"(default: {default})" in capsys.readouterr().out


def test_enumerate_single_color(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--colors", "1", "--labels", "0,1/2,1",
        "--class", "ssync", "--rigid", "--horizon", "16",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("index,")
    assert len(rows) == 4  # header + three label choices
    assert all("diverges" in row for row in rows[1:])  # one color never meets
    assert "inconclusive" in err


def test_enumerate_writes_csv(capsys):
    code, out, _err = run_cli(
        capsys, "enumerate", "--colors", "2", "--labels", "0,1/2,1",
        "--class", "ssync", "--horizon", "40",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "edges", "sccs", "selfloops", "twocycles", "missing_labels", "verdicts"]
    assert len(rows) == 37  # header + 36 two-color algorithms
    assert all(len(row) == 7 for row in rows)
    assert rows[1][5] == "A:1/2 1/1;B:1/2 1/1"
    assert rows[1][6] == "A,A:diverges;B,B:diverges"


def test_enumerate_oversized_needs_force(capsys):
    code, _out, err = run_cli(
        capsys, "enumerate", "--colors", "4", "--class", "ssync", "--horizon", "8",
    )
    assert code == 1
    assert "--force" in err


def test_replay_writes_validated_certificate(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, _out, _err = run_cli(
        capsys, "replay", "lemma9_3", "--lambda", "1/2", "--out", str(out_file),
    )
    assert code == 2
    cert = ScalingLoopCertificate.from_json(out_file.read_text())
    assert cert.ratio == Fraction(3, 8)
    validate_certificate(cert)


def test_replay_side_condition(capsys):
    code, _out, err = run_cli(capsys, "replay", "lemma9_6", "--lambda", "0")
    assert code == 1
    assert "alg6" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--alg", "qss4", "--init", "A,A"), "qss4 takes no coefficient"),
        (("run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A"), "ss3 takes no coefficient"),
        (("replay", "lemma6_alg_a"), "lemma6_alg_a takes no coefficient"),
        (("replay", "lemma7_alg_b"), "lemma7_alg_b takes no coefficient"),
        (("verify", "--alg", "{graph}", "--init", "A,A"), "{graph} takes no coefficient"),
    ],
)
def test_lambda_is_rejected_where_no_coefficient_is_taken(tmp_path, capsys, argv, message):
    graph = tmp_path / "ss3.json"
    graph.write_text(builtin("ss3").to_json())
    code, out, err = run_cli(capsys, *(a.format(graph=graph) for a in argv), "--lambda", "1/2")
    assert code == 1
    assert out == ""
    assert err == f"error: {message.format(graph=graph)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A", "--class", "lc-atomic"),
        ("verify", "--alg", "ss3", "--init", "A,A", "--horizon", "16"),
        ("enumerate", "--colors", "1", "--horizon", "8"),
    ],
)
@pytest.mark.parametrize(
    "movement, message",
    [
        (("--delta", "1/4"), "--delta requires --nonrigid"),
        (("--rigid", "--nonrigid", "--delta", "1/4"), "--rigid and --nonrigid exclude each other"),
    ],
)
def test_movement_flags_must_agree(capsys, argv, movement, message):
    assert run_cli(capsys, *argv, *movement) == (1, "", f"error: {message}\n")


def test_replay_validate_flag(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "replay", "lemma6_alg_a", "--out", str(out_file))
    code, out, _err = run_cli(capsys, "replay", "--validate", str(out_file))
    assert code == 2
    assert "ratio 1/4" in out


@pytest.mark.parametrize(
    "extra, what",
    [
        (("lemma6_alg_a",), "a counterexample name"),
        (("--lambda", "1/2"), "--lambda"),
        (("--dist", "1"), "--dist"),
        (("--out", "copy.json"), "--out"),
    ],
)
def test_replay_validate_takes_no_replay_flags(tmp_path, capsys, extra, what):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "replay", "lemma6_alg_a", "--out", str(cert_file))
    code, out, err = run_cli(capsys, "replay", "--validate", str(cert_file), *extra)
    assert (code, out, err) == (1, "", f"error: --validate takes no {what}\n")


def test_replay_validate_rejects_tampering(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "replay", "lemma6_alg_a", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["ratio"] = "1/3"
    out_file.write_text(json.dumps(data))
    code, _out, err = run_cli(capsys, "replay", "--validate", str(out_file))
    assert code == 1
    assert "replay" in err or "ratio" in err


def test_replay_validate_rejects_illegal_block(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "replay", "lemma9_3", "--lambda", "1/2", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["block"]["prefix"][0]["ops"][0] = "MB"
    out_file.write_text(json.dumps(data))
    code, _out, err = run_cli(capsys, "replay", "--validate", str(out_file))
    assert code == 1
    assert err.startswith("error:") and "MB" in err


# split Look and Compute: robot 1 halves the distance twice, then robot 0
# takes a Look whose Compute would change its color from A to C
LOOK_LAST = [
    {"t": 1, "ops": ["-", "LOOK"]}, {"t": 2, "ops": ["-", "COMP"]}, {"t": 3, "ops": ["-", "M"]},
    {"t": 4, "ops": ["-", "LC"]}, {"t": 5, "ops": ["-", "M"]}, {"t": 6, "ops": ["LOOK", "-"]},
]


def test_a_block_that_stops_after_a_look_is_no_divergence(tmp_path, capsys):
    sched_file = tmp_path / "look_last.json"
    sched_file.write_text(json.dumps({"prefix": LOOK_LAST}))
    code, _out, err = run_cli(
        capsys, "run", "--alg", "ss5", "--class", "async,lc-atomic", "--init", "A,B",
        "--schedule", str(sched_file),
    )
    assert (code, err) == (3, "")
    # its certificate, were the end of the Look a cycle start
    cert = {
        "algorithm": json.loads(builtin("ss5").to_json()),
        "scheduler": {"kind": "async", "lc_atomic": True, "move_atomic": False},
        "movement": {"kind": "rigid"},
        "entry": {"colors": ["A", "B"], "distance": "1/1"},
        "block": {"prefix": LOOK_LAST},
        "ratio": "1/4",
        "swap": False,
    }
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "replay", "--validate", str(cert_file))
    assert (code, out, err) == (1, "", "error: block does not end at a clean cycle start\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--alg", "ss3", "--init", "A,A", "--dist", "1/0"),
        ("verify", "--alg", "ss3", "--init", "A,A", "--nonrigid", "--delta", "1/0"),
        ("verify", "--alg", "alg1", "--init", "A,A", "--lambda", "1/0"),
        ("run", "--alg", "ss3", "--schedule", "sim", "--init", "A,A", "--dist", "1/0"),
        ("replay", "--validate", "{cert}"),
    ],
)
def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "replay", "lemma6_alg_a", "--out", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["ratio"] = "1/0"
    cert_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *(a.format(cert=cert_file) for a in argv))
    assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n")


@pytest.mark.parametrize(
    "labels, message",
    [
        ("1/2,,1", "not a rational p/q: ''"),
        ("", "not a rational p/q: ''"),
        ("0,0", "label 0/1 given twice"),
        ("1/2,2/4", "label 1/2 given twice"),
    ],
)
def test_enumerate_rejects_bad_labels(capsys, labels, message):
    code, out, err = run_cli(capsys, "enumerate", "--colors", "1", "--labels", labels)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "dist, message",
    [("0", "initial distance must be positive"), ("-1", "initial distance must be non-negative")],
)
def test_replay_needs_a_positive_distance(capsys, dist, message):
    code, out, err = run_cli(capsys, "replay", "lemma9_1", "--dist", dist)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_run_cuts_a_schedule_file_at_the_horizon(tmp_path, capsys):
    sched_file = tmp_path / "alt.json"
    sched_file.write_text(replay_paper_counterexample("lemma6_alg_a").schedule.to_json())
    code, out, _err = run_cli(
        capsys, "run", "--alg", "alg_a", "--schedule", str(sched_file), "--init", "B,C",
        "--class", "lc-atomic,move-atomic", "--horizon", "5",
    )
    assert code == 3
    assert [json.loads(line)["t"] for line in out.splitlines()] == [1, 2, 3, 4, 5]


SIM_LOOP = {"period": 2, "ops": [{"dt": 1, "ops": ["LC", "LC"]}, {"dt": 2, "ops": ["M", "M"]}]}


@pytest.mark.parametrize("own_horizon", [{}, {"horizon": 2}, {"horizon": 20}])
def test_run_repeats_a_loop_file_to_the_horizon(tmp_path, capsys, own_horizon):
    # --horizon cuts the loop, with or without a horizon in the file
    loop_file, prefix_file = tmp_path / "loop.json", tmp_path / "prefix.json"
    loop_file.write_text(json.dumps({"loop": SIM_LOOP, **own_horizon}))
    rows = [{"t": t, "ops": ["LC", "LC"] if t % 2 else ["M", "M"]} for t in range(1, 9)]
    prefix_file.write_text(json.dumps({"prefix": rows}))
    argv = ("run", "--alg", "ss3", "--init", "B,A", "--class", "ssync", "--horizon", "8", "--schedule")
    looped = run_cli(capsys, *argv, str(loop_file))
    assert looped == run_cli(capsys, *argv, str(prefix_file))
    assert looped[0] == 0 and len(looped[1].splitlines()) > 2


def test_an_empty_loop_block_repeats_nothing(tmp_path):
    # each pass of the reader's loop adds at least one time unit, so it ends
    sched_file = tmp_path / "empty.json"
    sched_file.write_text(json.dumps({"loop": {"period": 4, "ops": []}, "horizon": 8}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lumirend", "run", "--alg", "ss3", "--init", "A,A", "--class", "ssync",
         "--schedule", str(sched_file)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")


SS3 = json.loads(builtin("ss3").to_json())


def _cert_with(path, change):
    main(["replay", "lemma6_alg_a", "--out", str(path)])
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("schedule", {"prefix": [{"t": 1, "ops": ["LC"]}]}, "ops must be two op names, not ['LC']"),
        ("schedule", {"prefix": [{"t": "1", "ops": ["LC", "-"]}]}, "t must be an integer, not '1'"),
        ("schedule", {"prefix": [{"t": True, "ops": ["LC", "-"]}]}, "t must be an integer, not True"),
        ("schedule", {"prefix": [{"t": 1, "ops": ["LC", "-"], "fractions": [None]}]},
         "fractions must be two entries, not [None]"),
        ("schedule", {"prefix": [{"t": 1, "ops": ["LC", "-"], "fractions": [0.5, None]}]},
         "not a p/q string: 0.5"),
        ("schedule", {"loop": {"period": 0, "ops": []}, "horizon": 8}, "the loop period must be at least 1"),
        ("schedule", {"loop": {"period": 2, "ops": [{"dt": 1.5, "ops": ["LC", "LC"]}]}},
         "dt must be an integer, not 1.5"),
        ("schedule", {"loop": {"period": 1, "ops": [{"dt": 1, "ops": ["LC", "LC"]}, {"dt": 1, "ops": ["M", "M"]}]}},
         "loop offsets must be strictly increasing"),
        ("schedule", {"loop": {"period": 1, "ops": [{"dt": 2, "ops": ["LC", "LC"]}]}},
         "loop offsets exceed the period"),
        ("schedule", [], "a schedule must be a JSON object, not []"),
        ("schedule", {"prefix": [1]}, "a slot must be a JSON object, not 1"),
        ("schedule", {"loop": [1], "horizon": 4}, "a loop must be a JSON object, not [1]"),
        ("certificate", lambda c: c.update(ratio=0.25), "not a p/q string: 0.25"),
        ("certificate", lambda c: c["entry"].update(distance=1), "not a p/q string: 1"),
        ("certificate", lambda c: c.update(swap="false"), "swap must be true or false, not 'false'"),
        ("certificate", lambda c: c["entry"].update(colors="BC"), "entry colors must be two colors, not 'BC'"),
        ("certificate", lambda c: c["entry"].update(colors=["B", "C", "A"]),
         "entry colors must be two colors, not ['B', 'C', 'A']"),
        ("certificate", lambda c: c["scheduler"].update(lc_atomic="no"), "lc_atomic must be true or false, not 'no'"),
        ("certificate", lambda c: c.update(movement={"kind": "rigd", "delta": "1/4"}),
         "unknown movement kind 'rigd'"),
        ("certificate", lambda c: c.update(movement={"kind": "rigid", "delta": "1/4"}),
         "rigid movement takes no delta, not 1/4"),
        ("certificate", lambda c: c["algorithm"].update(colors="ABCD"), "colors must be a list of strings, not 'ABCD'"),
        ("graph", 0.5, "not a p/q string: 0.5"),
        ("graph", True, "not a p/q string: True"),
        ("graph file", {**SS3, "colors": "ABC"}, "colors must be a list of strings, not 'ABC'"),
        ("graph file", {**SS3, "colors": ["A", "B", "C", "A"]}, "color A is listed twice"),
        ("graph file", {**SS3, "edges": {**SS3["edges"], "A": ["B", "1/2"]}},
         "the edge of A must be a JSON object, not ['B', '1/2']"),
        ("graph file", {**SS3, "edges": {**SS3["edges"], "A": {"next": 1, "lambda": "1/2"}}},
         "next must be a string, not 1"),
        ("graph file", {**SS3, "edges": []}, "edges must be a JSON object, not []"),
        ("graph file", [], "a graph must be a JSON object, not []"),
        # the certificate reader reads exactly the keys that `to_json` writes
        ("certificate", lambda c: c.update(swapp=True), "a certificate has unknown keys: swapp"),
        ("certificate", lambda c: c.pop("ratio"), "a certificate lacks the keys: ratio"),
        ("certificate", lambda c: c["scheduler"].pop("kind"), "scheduler lacks the keys: kind"),
        ("certificate", lambda c: c["entry"].update(d="1/1"), "entry has unknown keys: d"),
        ("certificate", lambda c: c.update(block={**c["block"], "horizon": 3}), "block has unknown keys: horizon"),
        ("certificate", lambda c: c.update(block={"loop": {"period": 3, "ops": [{"dt": 1, "ops": ["LC", "-"]}]}, "horizon": 3}),
         "block has unknown keys: horizon, loop"),
        ("certificate", lambda c: c.update(block={"prefix": {}}), "prefix must be a JSON array, not {}"),
        ("certificate", lambda c: c["algorithm"].update(colours=["A"]), "algorithm has unknown keys: colours"),
        # schedule and graph files read exactly the keys of their formats too
        ("schedule", {"prefix": [{"t": 1, "ops": ["LC", "LC"]}, {"t": 2, "ops": ["M", "M"], "fraction": ["0/1", "0/1"]}]},
         "a slot has unknown keys: fraction"),
        ("schedule", {"prefix": [{"ops": ["LC", "-"]}]}, "a slot lacks the keys: t"),
        ("schedule", {"prefix": [], "horizn": 8}, "a schedule has unknown keys: horizn"),
        ("schedule", {"loop": {"period": 2, "ops": [], "offset": 1}, "horizon": 4}, "a loop has unknown keys: offset"),
        ("schedule", {"loop": {"period": 2}, "horizon": 4}, "a loop lacks the keys: ops"),
        ("graph file", {**SS3, "colours": ["A", "B", "C"]}, "a graph has unknown keys: colours"),
        ("graph file", {**SS3, "edges": {**SS3["edges"], "A": {**SS3["edges"]["A"], "weight": "1/2"}}},
         "the edge of A has unknown keys: weight"),
        ("graph file", {**SS3, "edges": {**SS3["edges"], "A": {"next": "B"}}}, "the edge of A lacks the keys: lambda"),
        ("certificate", lambda c: c["algorithm"]["edges"]["A"].update(weight="1/2"),
         "the edge of A has unknown keys: weight"),
        ("certificate", lambda c: c["block"]["prefix"][0].update(fraction=[None, None]),
         "a slot has unknown keys: fraction"),
        # a move fraction outside [0, 1] is a block the engine rejects
        ("certificate", lambda c: c["block"]["prefix"][2].update(fractions=["2/1", None]),
         "the engine rejects the block: robot 0: M at t=3: adversary fraction must lie in [0, 1]"),
        ("schedule", {"prefix": [{"t": 1, "ops": ["LC", "LC"]}, {"t": 2, "ops": ["M", "M"], "fractions": [None, "-1/2"]}]},
         "robot 1: M at t=2: adversary fraction must lie in [0, 1]"),
        # a present "prefix", "loop", loop "ops" or "horizon" has its JSON type
        ("schedule", {"prefix": None}, "prefix must be a JSON array, not None"),
        ("schedule", {"prefix": {}}, "prefix must be a JSON array, not {}"),
        ("schedule", {"loop": {"period": 2, "ops": None}, "horizon": 4}, "ops must be a JSON array, not None"),
        ("schedule", {"loop": {}}, "a loop lacks the keys: period, ops"),
        ("schedule", {"loop": None}, "a loop must be a JSON object, not None"),
        ("schedule", {"loop": 0}, "a loop must be a JSON object, not 0"),
        ("schedule", {"loop": False}, "a loop must be a JSON object, not False"),
        ("schedule", {"loop": []}, "a loop must be a JSON object, not []"),
        ("schedule", {"horizon": None}, "horizon must be an integer, not None"),
    ],
)
def test_malformed_files_are_usage_errors(tmp_path, capsys, kind, content, message):
    path = tmp_path / f"{kind}.json"
    if kind == "schedule":
        path.write_text(json.dumps(content))
        argv = ("run", "--alg", "ss3", "--init", "A,A", "--class", "ssync", "--schedule", str(path))
    elif kind == "certificate":
        _cert_with(path, content)
        capsys.readouterr()
        argv = ("replay", "--validate", str(path))
    else:
        graph = content
        if kind == "graph":  # the content is edge A's lambda
            graph = json.loads(builtin("ss3").to_json())
            graph["edges"]["A"]["lambda"] = content
        path.write_text(json.dumps(graph))
        argv = ("verify", "--alg", str(path), "--class", "ssync", "--init", "A,A", "--horizon", "8")
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_legality_is_checked_over_the_slots_that_run(capsys):
    # alt's M rows are not adjacent to their LC, so SSYNC rejects alt from t=3
    argv = ("run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A", "--class", "ssync", "--horizon")
    code, out, err = run_cli(capsys, *argv, "2")
    assert (code, len(out.splitlines()), err) == (3, 2, "")
    code, out, err = run_cli(capsys, *argv, "64")
    reported = [int(t) for t in re.findall(r"M at t=(\d+) is not adjacent", err)]
    assert (code, out) == (1, "")
    assert sorted(reported) == [t for t in range(3, 65) if t % 4 in (0, 3)]


def test_a_loop_file_needs_a_horizon_from_somewhere():
    # `run` always passes its --horizon; a library read of the file has none
    with pytest.raises(ValueError, match="a horizon is required when a loop is present"):
        Schedule.from_json_dict({"loop": SIM_LOOP})


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon": 8, "scheduler_class": "ssync"}))
    code, out, _err = run_cli(
        capsys, "--config", str(config), "run", "--alg", "ss3",
        "--schedule", "sim", "--init", "A,A",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["distance"] == "0/1"


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"nonrigid": "false", "delta": "1/4"}, ("verify", "--alg", "qss4", "--init", "A,A"),
         "nonrigid must be true or false, not 'false'"),
        ({"timestamp": "no"}, ("verify", "--alg", "qss4", "--init", "A,A"), "timestamp must be true or false, not 'no'"),
        ({"horizon": 8.5}, ("verify", "--alg", "qss4", "--init", "A,A"), "argument --horizon: invalid int value: '8.5'"),
        ({"horizon": 8.5}, ("run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A"),
         "argument --horizon: invalid int value: '8.5'"),
        ({"horizon": None}, ("verify", "--alg", "qss4", "--init", "A,A"), "horizon must be a string or a number, not None"),
        ({"format": "xml"}, ("run", "--alg", "ss3", "--schedule", "alt", "--init", "A,A"),
         "argument --format: invalid choice: 'xml' (choose from 'jsonl', 'csv')"),
    ],
)
def test_config_values_take_their_flags_types(tmp_path, capsys, config, argv, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(capsys, "--config", str(path), *argv) == (1, "", f"error: {path}: {message}\n")


def test_config_values_are_read_as_on_the_command_line(tmp_path, capsys):
    argv = ("verify", "--alg", "qss4", "--init", "A,A")
    want = run_cli(capsys, *argv, "--horizon", "8")
    assert want[0] == 0
    path = tmp_path / "config.json"
    for config in ({"horizon": 8}, {"horizon": "8", "nonrigid": False, "timestamp": False}):
        path.write_text(json.dumps(config))
        assert run_cli(capsys, "--config", str(path), *argv) == want


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon": 8, "workers": 2, "no_such_flag": 1}))
    code, out, err = run_cli(
        capsys, "--config", str(config), "enumerate", "--colors", "1", "--class", "ssync",
    )
    assert code == 1
    assert out == ""
    assert "no_such_flag" in err and "workers" in err
    assert "horizon" not in err
    for text in ("{bad", "[]"):
        config.write_text(text)
        code, _out, err = run_cli(capsys, "--config", str(config), "enumerate", "--colors", "1")
        assert code == 1 and err.startswith("error:")
    # a flag of another command is no key of this one
    config.write_text(json.dumps({"schedule": "alt"}))
    code, out, err = run_cli(
        capsys, "--config", str(config), "enumerate", "--colors", "1", "--class", "ssync",
    )
    assert (code, out, err) == (1, "", f"error: {config} sets unknown keys: schedule\n")
    absent = tmp_path / "absent.json"
    code, _out, err = run_cli(capsys, "--config", str(absent), "enumerate", "--colors", "1")
    assert code == 1 and err.startswith("error:")


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(builtin("ss3").to_json())
    code, out, _err = run_cli(
        capsys, "run", "--alg", str(path), "--schedule", "sim", "--init", "A,A",
        "--class", "ssync", "--horizon", "8",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["distance"] == "0/1"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--alg", "ss3", "--bogus"), 1),  # an unknown flag
        (("verify",), 1),  # a missing required flag
        ((), 1),  # no command
        (("replay", "lemma9_3", "--class", "ssync"), 1),  # a flag replay does not take
        (("verify", "--help"), 0),
    ],
)
def test_usage_errors_exit_1(capsys, argv, code):
    # exit code 2 is the verdict code for divergence
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("usage: lumirend") and "error:" in err
    else:
        assert out.startswith("usage: lumirend verify") and err == ""


MODEL_FLAGS = {"--class", "--rigid", "--nonrigid", "--delta", "--horizon"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", MODEL_FLAGS | {"--dist", "--lambda", "--out", "--alg", "--schedule", "--init",
                               "--format", "--cert-out"}),
        ("verify", MODEL_FLAGS | {"--dist", "--lambda", "--out", "--timestamp", "--alg", "--init"}),
        ("enumerate", MODEL_FLAGS | {"--dist", "--out", "--colors", "--labels", "--force"}),
        ("replay", {"--dist", "--lambda", "--out", "--validate"}),
    ],
)
def test_each_command_lists_exactly_its_flags(capsys, monkeypatch, command, flags):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) == flags


def test_python_dash_m_runs_the_cli():
    # the README's commands run as `python -m lumirend ...` without an install
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "lumirend", "verify", "--alg", "nonqss3", "--class", "lc-atomic",
         "--rigid", "--init", "B,B"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["kind"] == "diverges"
