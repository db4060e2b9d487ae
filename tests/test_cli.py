import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rcbij import cli
from rcbij.cli import main
from rcbij.rc import complement, rc_from_json
from rcbij.verify import BATTERY

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv, stdin_text=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_x_unique_path():
    code, out = run(["x", "--type", "C1", "--n", "2", "--len", "2",
                     "--weight", "2,0"])
    assert code == 0 and out.strip() == "1"


def test_x_and_m_agree():
    args = ["--type", "D2", "--n", "2", "--len", "3", "--weight", "1,0"]
    _c1, out1 = run(["x"] + args)
    _c2, out2 = run(["m"] + args)
    _c3, out3 = run(["f"] + args)
    assert out1 == out2 == out3


def test_dump_h():
    code, out = run(["x", "--type", "A2", "--n", "1", "--dump-h"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert ["1", "1", "0"] in rows and ["E", "E", "2"] in rows
    assert len(rows) == 9


def test_rc_enum_and_path_enum():
    args = ["--type", "C1", "--n", "2", "--len", "3", "--weight", "1,0"]
    code, out = run(["rc-enum"] + args + ["--json"])
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, out = run(["path-enum"] + args)
    assert code == 0 and len(out.strip().splitlines()) == 3
    assert any("dbar=1" in line for line in out.splitlines())
    # text output: half-integer lengths and riggings print as k/2
    code, out = run(["rc-enum", "--type", "A2dag", "--n", "1", "--len", "3",
                     "--weight", "1"])
    assert code == 0 and "(1:1/2,1:1/2) cc=3" in out.splitlines()


def test_map_round_trip():
    rc_blob = json.dumps(
        {
            "type": "C1", "n": 2, "L": 3, "lambda": [1, 0],
            "nu": [
                {"a": 1, "strings": [{"len2": 4, "rig2": 2}]},
                {"a": 2, "strings": [{"len2": 4, "rig2": 0}]},
            ],
        }
    )
    code, out = run(["map", "--dir", "rc2path"], stdin_text=rc_blob)
    assert code == 0
    path = json.loads(out)
    assert path["word"] == ["-1", "1", "1"]
    code, out = run(
        ["map", "--dir", "path2rc"],
        stdin_text=json.dumps({"type": "C1", "n": 2, "word": path["word"]}),
    )
    assert code == 0
    assert json.loads(out) == json.loads(rc_blob)
    # --tilde complements the riggings, and rc2path --tilde undoes it
    code, out = run(
        ["map", "--dir", "path2rc", "--tilde"],
        stdin_text=json.dumps({"type": "C1", "n": 2, "word": path["word"]}),
    )
    at, lam, L, plain = rc_from_json(json.loads(rc_blob))
    assert code == 0 and rc_from_json(json.loads(out)) == (
        at, lam, L, complement(at, L, plain))
    code, back = run(["map", "--dir", "rc2path", "--tilde"], stdin_text=out)
    assert code == 0 and json.loads(back) == path


def test_verify_ok_and_deterministic():
    argv = ["verify", "--type", "A2", "--n", "1", "--max-len", "3"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "NO" not in out1
    # --timings adds a tenth column and leaves the other nine as they were
    code, timed = run(argv + ["--timings"])
    rows = [line.split("\t") for line in timed.splitlines()]
    assert code == 0 and rows[0][9] == "runtime"
    assert all(len(row) == 10 for row in rows)
    assert ["\t".join(row[:9]) for row in rows] == out1.splitlines()
    # without --type, verify runs the default battery
    code, out = run(["verify", "--max-len", "1"])
    types = {tuple(line.split("\t")[:2]) for line in out.splitlines()[1:]}
    assert code == 0 and len(types) == 14
    assert types == {(fam, str(n)) for fam, n in BATTERY}


def test_verify_grid_file(tmp_path):
    gridfile = tmp_path / "grid.json"
    gridfile.write_text(
        json.dumps(
            {
                "cells": [
                    {"type": "A2dag", "n": 1, "max_len": 3},
                    {"type": "C1", "n": 2, "L": 2, "lambda": [1, 1]},
                ]
            }
        )
    )
    code, out = run(["verify", "--grid", str(gridfile)])
    assert code == 0
    assert "A2dag" in out and "C1" in out


def test_verify_parallel_matches_serial(tmp_path):
    gridfile = tmp_path / "grid.json"
    gridfile.write_text(json.dumps({"cells": [
        {"type": "C1", "n": 2, "max_len": 3},
        # below the level the run has reached: certified without the table
        {"type": "C1", "n": 2, "L": 2, "lambda": [1, 1]},
        {"type": "A2dag", "n": 1, "max_len": 2},
    ]}))
    for argv in (["verify", "--max-len", "2"],
                 ["verify", "--grid", str(gridfile)]):
        code, serial = run(argv)
        assert code == 0
        assert run(argv + ["--jobs", "2"]) == (0, serial)
    # the pinned cell's row matches the same cell's row in the run
    assert serial.count("C1\t2\t2\t1,1\t1\t1\tq\tq\tyes\n") == 2


def test_graph_dot():
    code, out = run(["graph", "--type", "D1", "--n", "4", "--dot"])
    assert code == 0
    assert '"3" -> "-4" [label="4"];' in out


def test_usage_errors(capsys, tmp_path):
    assert main(["x", "--type", "C1", "--n", "2"]) == 2  # missing weight
    assert main(["nonsense"]) == 2
    assert main(["x", "--type", "B1", "--n", "2", "--len", "1",
                 "--weight", "0,0"]) == 2  # rank below range
    capsys.readouterr()
    # input errors give one error line and exit 2, never a traceback
    assert main(["x", "--type", "C1", "--n", "2", "--weight", "1,0"]) == 2
    for word in (["5"], ["E"], ["1", "2"]):  # no letter; no letter; not highest
        blob = json.dumps({"type": "C1", "n": 2, "word": word})
        assert run(["map", "--dir", "path2rc"], stdin_text=blob)[0] == 2
    cell = ["--type", "C1", "--n", "2", "--len", "3"]
    for cmd in ("x", "m", "f", "rc-enum", "path-enum"):  # not dominant
        assert main([cmd] + cell + ["--weight", "0,1"]) == 2
    assert main(["m"] + cell + ["--weight", "1,x"]) == 2  # not an integer
    assert main(["m", "--type", "C1", "--n", "2", "--len", "-1",
                 "--weight", "1,0"]) == 2  # negative length
    assert main(["verify", "--type", "C1"]) == 2  # no --n
    assert main(["verify", "--n", "2"]) == 2  # no --type
    assert main(["verify", "--type", "C1", "--n", "2",
                 "--max-len", "-1"]) == 2  # negative length
    for jobs in ("0", "-3"):  # not a positive worker count
        assert main(["verify", "--max-len", "1", "--jobs", jobs]) == 2
    for fam, n in (("D1", 2), ("B1", 1), ("A2odd", 1), ("D2", 1)):  # not built
        assert main(["verify", "--type", fam, "--n", str(n), "--relax-rank",
                     "--max-len", "2"]) == 2
    rc = {"type": "C1", "n": 2, "L": 3, "lambda": [1, 0],
          "nu": [{"a": 1, "strings": [{"len2": 4, "rig2": 2}]},
                 {"a": 2, "strings": [{"len2": 4, "rig2": 0}]}]}
    bad = [dict(rc, **{"lambda": lam}) for lam in ([0, 1], [1, 0, 0])]
    for a in (0, 3):  # node index outside 1..n
        nu = [rc["nu"][0], dict(rc["nu"][1], a=a)]
        bad.append(dict(rc, nu=nu))
    bad.append(dict(rc, type="Z1"))  # unknown family
    bad.append(dict(rc, nu=[{"a": "1", "strings": []}]))  # a not an integer
    for key in ("len2", "rig2"):  # not integers
        node = {"a": 1, "strings": [dict(rc["nu"][0]["strings"][0],
                                         **{key: "4"})]}
        bad.append(dict(rc, nu=[node, rc["nu"][1]]))
    bad.append({k: v for k, v in rc.items() if k != "nu"})  # no nu
    bad.append([rc])  # not an object
    for blob in bad:
        code = run(["map", "--dir", "rc2path"], stdin_text=json.dumps(blob))[0]
        assert code == 2
    for blob in ({"type": "Z1", "n": 2, "word": ["1"]}, {"type": "C1", "n": 2},
                 ["1"]):  # unknown family; no word; not an object
        code = run(["map", "--dir", "path2rc"], stdin_text=json.dumps(blob))[0]
        assert code == 2
    gridfile = tmp_path / "grid.json"
    for cell in ({"type": "C1", "n": 2, "L": 2, "lambda": [0, 1]},  # not dominant
                 {"type": "Z1", "n": 2, "max_len": 2},  # unknown family
                 {"type": "C1", "n": 2, "lambda": [1, 1]},  # no L
                 {"type": "C1", "n": 2, "max_len": -3}):  # negative length
        gridfile.write_text(json.dumps({"cells": [cell]}))
        assert main(["verify", "--grid", str(gridfile)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 37 and all(ln.startswith("error: ") for ln in lines)


def test_verify_same_under_optimize(tmp_path):
    # results must not depend on assert statements
    argv = ["-m", "rcbij", "verify", "--type", "A1", "--n", "2",
            "--max-len", "4"]
    env = dict(os.environ, PYTHONPATH=SRC)
    plain = subprocess.run([sys.executable] + argv, env=env,
                           capture_output=True, text=True, timeout=300)
    opt = subprocess.run([sys.executable, "-O"] + argv, env=env,
                         capture_output=True, text=True, timeout=300)
    assert plain.returncode == opt.returncode == 0, opt.stderr
    assert opt.stdout == plain.stdout
    # one map round trip, path to rc and back, gives the same rc under -O
    path = json.dumps({"type": "C1", "n": 2, "word": ["-1", "1", "1"]})
    rcs = []
    for flags in ([], ["-O"]):
        argv = [sys.executable] + flags + ["-m", "rcbij", "map", "--dir"]
        rc = subprocess.run(argv + ["path2rc"], env=env, input=path,
                            capture_output=True, text=True, timeout=60)
        back = subprocess.run(argv + ["rc2path"], env=env, input=rc.stdout,
                              capture_output=True, text=True, timeout=60)
        assert rc.returncode == back.returncode == 0, (flags, back.stderr)
        assert json.loads(back.stdout)["word"] == ["-1", "1", "1"]
        rcs.append(rc.stdout)
    assert rcs[0] == rcs[1]
    # an A1 weight whose entries do not sum to L is an empty cell
    gridfile = tmp_path / "grid.json"
    gridfile.write_text(json.dumps(
        {"cells": [{"type": "A1", "n": 2, "L": 2, "lambda": [1, 0, 0]}]}
    ))
    cell = ["--type", "A1", "--n", "2", "--len", "2", "--weight", "1,0,0"]
    for args, want in (
        (["x"] + cell, "0\n"), (["m"] + cell, "0\n"), (["f"] + cell, "0\n"),
        (["rc-enum"] + cell, ""),
        (["verify", "--grid", str(gridfile)],
         "A1\t2\t2\t1,0,0\t0\t0\t0\t0\tyes\n"),
    ):
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable] + flags + ["-m", "rcbij"]
                                 + args, env=env, capture_output=True,
                                 text=True, timeout=60)
            assert out.returncode == 0, (args, flags, out.stderr)
            assert out.stdout.endswith(want), (args, flags, out.stdout)


def test_relax_rank_flag():
    code, out = run(["x", "--type", "C1", "--n", "1", "--relax-rank",
                     "--len", "1", "--weight", "1"])
    assert code == 0 and out.strip() == "1"


def test_one_parser_many_commands(monkeypatch):
    """main reuses one parser; each run prints what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this
    path = json.dumps({"type": "C1", "n": 2, "word": ["-1", "1", "1"]})
    rc = run(["map", "--dir", "path2rc"], stdin_text=path)[1]
    commands = [
        (["map", "--dir", "path2rc"], path),
        (["map", "--dir", "rc2path"], rc),
        (["map", "--dir", "sideways"], path),  # argparse usage error
        (["verify", "--max-len", "1"], ""),
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    fresh = []
    for argv, stdin_text in commands:
        proc = subprocess.run([sys.executable, "-m", "rcbij"] + argv,
                              env=env, input=stdin_text, capture_output=True,
                              text=True, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [f[0] for f in fresh] == [0, 0, 2, 0]
    for _twice in range(2):
        for (argv, stdin_text), want in zip(commands, fresh):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run(argv, stdin_text)
            assert (code, out, err.getvalue()) == want, argv
    assert cli._build_parser.cache_info().misses == 1
