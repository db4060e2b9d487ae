import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rcbij import cli, rc as rc_mod
from rcbij.cartan import AffineType
from rcbij.cli import main
from rcbij.rc import complement, enumerate_rc, rc_from_json, rc_to_json
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
    # the empty path, at length 0
    assert run(["x", "--type", "C1", "--n", "2", "--len", "0",
                "--weight", "0,0"]) == (0, "1\n")


def test_x_and_m_agree():
    args = ["--type", "D2", "--n", "2", "--len", "3", "--weight", "1,0"]
    _c1, out1 = run(["x"] + args)
    _c2, out2 = run(["m"] + args)
    _c3, out3 = run(["f"] + args)
    assert out1 == out2 == out3


def test_long_path_needs_no_deep_recursion():
    # one path of 1200 letters: its enumeration once overflowed the stack
    args = ["--type", "A1", "--n", "1", "--len", "1200", "--weight", "1200,0"]
    for cmd in ("x", "m"):
        assert run([cmd] + args) == (0, "1\n")
    code, out = run(["path-enum"] + args)
    assert code == 0 and out.count("\n") == 1


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


def test_rc2path_builds_the_input_config_once(monkeypatch):
    """map --dir rc2path validates one Config of the input and phi steps
    from it: L + 1 Configs in all, one more with --tilde (its complement)."""
    built = []
    init = rc_mod.Config.__init__
    monkeypatch.setattr(rc_mod.Config, "__init__",
                        lambda self, *a: built.append(a[1]) or init(self, *a))
    at = AffineType("C1", 2)
    for rc in enumerate_rc(at, (1, 0), 3):
        blob = json.dumps(rc_to_json(at, (1, 0), 3, rc))
        for flag, extra in (([], 0), (["--tilde"], 1)):
            built.clear()
            assert run(["map", "--dir", "rc2path"] + flag, blob)[0] == 0
            assert built == [3] * (1 + extra) + [2, 1, 0], (rc, flag)


def test_verify_ok_and_deterministic(monkeypatch):
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
    # without --max-len, verify stops at L = 4
    code, out = run(["verify", "--type", "A2", "--n", "1"])
    assert code == 0 and max(int(line.split("\t")[2])
                             for line in out.splitlines()[1:]) == 4
    # without --type, verify runs the default battery, one run per type
    real, runs = cli._run_cells, []
    monkeypatch.setattr(cli, "_run_cells",
                        lambda cells: runs.append(cells) or real(cells))
    code, out = run(["verify", "--max-len", "1"])
    types = {tuple(line.split("\t")[:2]) for line in out.splitlines()[1:]}
    assert code == 0 and len(types) == 14
    assert types == {(fam, str(n)) for fam, n in BATTERY}
    assert [(cells[0][0].family, cells[0][0].n) for cells in runs] \
        == list(BATTERY)
    # L = 0 alone: the one empty cell of each type
    code, out = run(["verify", "--max-len", "0"])
    assert code == 0 and len(out.splitlines()) == 1 + 14


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


def test_verify_jobs_capped_at_runs(monkeypatch):
    """--jobs N starts min(N, number of runs) workers, and none for one.

    The pool is a stub that records its size and maps in this process.
    """
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    one_type = ["verify", "--type", "C1", "--n", "2"]
    battery = ["verify", "--max-len", "1"]
    for argv, jobs, want in ((one_type, ["--jobs", "8"], []),
                             (battery, ["--jobs", "3"], [3]),
                             (battery, ["--jobs", "2"], [2]),
                             (battery, ["--jobs", "1"], []),
                             (battery, [], [])):
        sizes.clear()
        code, serial = run(argv)
        assert run(argv + jobs) == (0, serial) and code == 0
        assert sizes == want, jobs


def test_graph_dot():
    code, out = run(["graph", "--type", "D1", "--n", "4", "--dot"])
    assert code == 0
    assert '"3" -> "-4" [label="4"];' in out


# sha256 of `graph --dot` and `x --dump-h` per type, recorded from the
# transcribed arrow tables that the derivation from the root data replaced
CRYSTAL_DIGESTS = {
    ("A1", 1): (
        "3e8e7348a785be8fee5122b2d29312e10d232d33f4472783676a58420202bbfa",
        "bf0a75a61ffaa1ed4e581061f295aa1a69390b68507cce3afa75cb1546dcee68",
    ),
    ("A1", 2): (
        "e63a0de293c3c6cd7a7a13dda1d3ef6bb3e6d5ad300e5af71fa5e1fe43153074",
        "1e88154211508a914cc880a1854e9f4e1f57a7c15305aa08256efe91b53ffad2",
    ),
    ("A1", 3): (
        "8fcf6d16efce381753ef27c55ccbcead1a8b1275d4cb8aadce7a56e69dbe9bf7",
        "15b6e338c5657135944dd66f3ccfec15b70ef5d8e309fb8f5a501dc14496157d",
    ),
    ("B1", 3): (
        "dde013dffc8d67bd9fc254ef075a266aeeb4abca1c5b45703bd620fd59e0c68f",
        "20b16bc7b023674e19b15872a742fad3c9aabe3c3de68d008b149a11a2839cb5",
    ),
    ("C1", 2): (
        "341ab3d342c9901be96f5bd6511325545f315449f18e760b83a7e656f7acd7ac",
        "25a575ed2dc4f329f955b04b2e58a0d2c614b999e84ca3b14679fbe6648df966",
    ),
    ("C1", 3): (
        "d2619379ac6ae1451a2fe5e7e726a0769e447c282de20fdfaaefbbb25bf1263b",
        "6b46e786d7eb7ef1eb1d7578ce98bf628f23fa70ac8b59e665affcd5f797ff1c",
    ),
    ("D1", 4): (
        "0b279ae2edea039c4fa84cd1d703a4f3249ae6f693f76f538cf33c99d5facd3a",
        "6a622582f4a18f798f25ad71a662e546787726e6078eeb3d1034c0974dbdd337",
    ),
    ("A2", 1): (
        "9d78ca1bcf74c3c053436b0deb9f4eb5a5f529cb3c6fac616e4b7583a6cf737c",
        "ed3233f315d5883c271566bc1fda609d1438faadd9a48cd34fd44f0ba1fe6c46",
    ),
    ("A2", 2): (
        "8af88a48a4d767074e80fa4562a7b74f422c6da2352b65e56a859cac3f872447",
        "f9822d7869c0901e270b0efb1b3d1272601dba7cea153f63769f808bdcf09e5e",
    ),
    ("A2dag", 1): (
        "d21fea124273559f3d59025757527e0e0739ae968cbb48f50bbbf60b12008ab9",
        "693f44f29426e06ee605f02cb93e4fe994908c1db31fcff1f38d0489afab59af",
    ),
    ("A2dag", 2): (
        "815c6cae7a0bcc880b6f2899d8757b133ec59d3059e2574cc94fbd877b3a8252",
        "3441d763562997785093229064d253cf7daa56807fdae6dcab2efe64cb26b1d4",
    ),
    ("A2odd", 2): (
        "90421850ab4bf8f0987c31d7569d912b01be67b9279ef07d6b0e42bfca141ac2",
        "33cfbef064e9b5fcbc0e46c51e5fcdd305b08969d4ef0b056fe0a684af9724f0",
    ),
    ("D2", 2): (
        "05367e1f742a5c0ceba8ca70b129a182d02d27e66437db3dee31afbe95b2a818",
        "196587c20e28a9d523ee26d222852641bb403e96c07f38a24ecdfe9b6d4424be",
    ),
    ("D2", 3): (
        "0ad531a11bd39def517db96b774eda3fe6db05afb0f36d0e6b99305279947c8d",
        "c702c3f9c06ed5e0a4b11c3d349feed6a152529c6a9f37bf51e1acb22d5d94b8",
    ),
    ("C1", 1): (
        "560936dfe79c21a9f3b0e670443ea485da605003989129a2518aec952b893849",
        "d8cb5c42417004e08b31550ec1a6a7b50cf8a78f42ddeab7c8fa76a159424dd2",
    ),
    ("B1", 2): (
        "7701b870c2414ce365c1c89f88b73e93b64a4681689b467ac0f8c543baf8d96f",
        "a5c897768d40e905cbd75959e04a4e78cc139317960c2679aca1c1c6810153b6",
    ),
    ("D1", 3): (
        "4e22f9d0a81181e3c1ed0a5f8d89885b9b20942df024710e4255de39f561f46b",
        "eff3400716172b5675b734aff573464013209d0ef765f67c91481daab58c400d",
    ),
}


def test_crystal_output_pinned():
    for (fam, n), digests in CRYSTAL_DIGESTS.items():
        rank = ["--type", fam, "--n", str(n), "--relax-rank"]
        for argv, want in zip((["graph"] + rank + ["--dot"],
                               ["x"] + rank + ["--dump-h"]), digests):
            code, out = run(argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# sha256 prefixes of outputs at ranks past the battery's, where the tables
# are read off the arrows and the root entries: the same bytes as the
# tables built by probing every pair and by dense dot products gave.
HIGH_RANK_DIGESTS = [
    (["verify", "--type", "C1", "--n", "60", "--max-len", "1"], None,
     "9417ecb7c9aa0398"),
    (["verify", "--type", "D1", "--n", "60", "--max-len", "1"], None,
     "0140cbb71e3b709a"),
    (["map", "--dir", "path2rc"],
     json.dumps({"type": "C1", "n": 100, "word": ["-1", "1"]}),
     "769fc89a53b119c3"),
]


def test_high_rank_output_pinned():
    for argv, stdin_text, want in HIGH_RANK_DIGESTS:
        code, out = run(argv, stdin_text)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, argv


def test_usage_errors(capsys, tmp_path):
    assert main(["--help"]) == 0  # help is no error
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
    # lambda, nu and each node's strings are lists, even when empty, and
    # each node and string an object
    empty = dict(rc, L=0, **{"lambda": [0, 0]})
    bad += [dict(empty, nu={}), dict(empty, **{"lambda": {}})]
    for strings in ({}, ""):
        bad.append(dict(empty, nu=[{"a": 1, "strings": strings}]))
    bad.append(dict(rc, nu=[[1, [[4, 2]]], rc["nu"][1]]))  # a node as a list
    node = {"a": 1, "strings": [[4, 2]]}  # a string as a list
    bad.append(dict(rc, nu=[node, rc["nu"][1]]))
    # a node index given twice, even with no strings the second time
    bad.append(dict(rc, nu=rc["nu"] + [{"a": 1, "strings": []}]))
    for blob in bad:
        code = run(["map", "--dir", "rc2path"], stdin_text=json.dumps(blob))[0]
        assert code == 2
    for blob in ({"type": "Z1", "n": 2, "word": ["1"]}, {"type": "C1", "n": 2},
                 ["1"],  # unknown family; no word; not an object
                 {"type": "A1", "n": 2, "word": [2, 1]}):  # JSON numbers
        code = run(["map", "--dir", "path2rc"], stdin_text=json.dumps(blob))[0]
        assert code == 2
    gridfile = tmp_path / "grid.json"
    for cell in ({"type": "C1", "n": 2, "L": 2, "lambda": [0, 1]},  # not dominant
                 {"type": "Z1", "n": 2, "max_len": 2},  # unknown family
                 {"type": "C1", "n": 2, "lambda": [1, 1]},  # no L
                 {"type": "C1", "n": 2, "max_len": -3}):  # negative length
        gridfile.write_text(json.dumps({"cells": [cell]}))
        assert main(["verify", "--grid", str(gridfile)]) == 2
    # a type or rank of the wrong JSON kind, refused before it is hashed
    for key, value in [("type", v) for v in (["C1"], None, {"a": 1})] + [
            ("n", v) for v in (True, 2.0)]:
        blob = json.dumps(dict(rc, **{key: value}))
        assert run(["map", "--dir", "rc2path"], stdin_text=blob)[0] == 2
        blob = json.dumps({"type": "C1", "n": 2, "word": ["1"], key: value})
        assert run(["map", "--dir", "path2rc"], stdin_text=blob)[0] == 2
        cell = {"type": "C1", "n": 2, "max_len": 2, key: value}
        gridfile.write_text(json.dumps({"cells": [cell]}))
        assert main(["verify", "--grid", str(gridfile)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 56 and all(ln.startswith("error: ") for ln in lines)
    # relaxed ranks with no diagram to read, D2 n=1 and ranks above the
    # ceiling of 400 are refused by every command that takes a type
    for fam, n in (("D1", 1), ("D1", 2), ("B1", 1), ("A2odd", 1), ("D2", 1),
                   ("C1", 401)):
        rank = ["--type", fam, "--n", str(n), "--relax-rank"]
        cell = rank + ["--len", "2", "--weight", ",".join("0" * n)]
        for argv in ([[cmd] + cell for cmd in ("x", "m", "f", "rc-enum",
                                                "path-enum")]
                     + [["graph"] + rank + ["--dot"],
                        ["verify"] + rank + ["--max-len", "2"]]):
            assert run(argv) == (2, ""), argv
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: "), argv
    # also in a grid file and in map's JSON, either way, before any table
    # of the rank is built
    gridfile.write_text(json.dumps(
        {"cells": [{"type": "C1", "n": 401, "max_len": 1}]}))
    path = json.dumps({"type": "C1", "n": 401, "word": []})
    rc = json.dumps({"type": "D2", "n": 401, "L": 3, "lambda": [0], "nu": []})
    runs = [(["verify", "--grid", str(gridfile)], None)]
    for tilde in ([], ["--tilde"]):
        runs += [(["map", "--dir", "path2rc"] + tilde, path),
                 (["map", "--dir", "rc2path"] + tilde, rc)]
    for argv, stdin_text in runs:
        assert run(argv, stdin_text) == (2, ""), argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "got 401" in line, argv


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    # deeper than the JSON parser recurses, closed or not: one error line
    # and exit 2, on stdin either way and in a grid file
    depth = 200000
    blobs = ["[" * depth, "[" * depth + "]" * depth, '{"a": ' * depth]
    runs = [(["map", "--dir", way], blob)
            for way in ("rc2path", "path2rc") for blob in blobs]
    for k, blob in enumerate(blobs):
        gridfile = tmp_path / ("grid%d.json" % k)
        gridfile.write_text('{"cells": %s}' % blob)
        runs.append((["verify", "--grid", str(gridfile)], None))
    for argv, text in runs:
        assert run(argv, text) == (2, ""), argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "nested too deeply" in line


# Stdlib modules that no command runs; loading them cost every rcbij
# process about 15 ms and 1.5 MB at start-up.
UNUSED_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                 "fractions", "decimal", "numbers")

FOOTPRINT = """
import io, json, sys
from contextlib import redirect_stdout
from rcbij import cli

def run(argv, text=""):
    sys.stdin = io.StringIO(text)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0, argv
    return buf.getvalue()

path = json.dumps({"type": "C1", "n": 2, "word": ["-1", "1", "1"]})
rc = run(["map", "--dir", "path2rc"], path)
assert json.loads(run(["map", "--dir", "rc2path"], rc)) == dict(
    json.loads(path), L=3, **{"lambda": [1, 0]})
run(["verify", "--max-len", "2"])
print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""


def test_commands_load_no_unused_stdlib():
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *UNUSED_STDLIB],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


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
