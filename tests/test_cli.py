import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regsimplex import cli
from regsimplex.cli import main, run_verify
from regsimplex.lenz import config_from_json, config_to_json
from test_census import HUGE_MODULUS


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestGenerate:
    def test_even(self, capsys):
        code, out = run(capsys, "generate", "--n", "20", "--r", "3")
        assert code == 0
        config = config_from_json(json.loads(out))
        assert [c.size for c in config.components] == [6, 6, 8]

    def test_odd(self, capsys):
        code, out = run(capsys, "generate", "--n", "10", "--r", "3", "--odd")
        config = config_from_json(json.loads(out))
        assert config.ambient_dim == 7
        assert config.components[-1].kind == "sphere2"

    def test_even_k4_and_default_k(self, capsys):
        _, default = run(capsys, "generate", "--n", "20", "--r", "4")
        _, k3 = run(capsys, "generate", "--n", "20", "--r", "4", "--k", "3")
        _, k4 = run(capsys, "generate", "--n", "20", "--r", "4", "--k", "4")
        assert default == k3
        assert config_from_json(json.loads(k4)).n == 20

    def test_round_trip_via_file(self, tmp_path, capsys):
        out_file = tmp_path / "config.json"
        main(["generate", "--n", "20", "--r", "3", "--out", str(out_file)])
        first = out_file.read_bytes()
        main(["generate", "--n", "20", "--r", "3", "--out", str(out_file)])
        assert out_file.read_bytes() == first


class TestCount:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        main(["generate", "--n", "36", "--r", "3", "--out", str(path)])
        return str(path)

    @pytest.mark.parametrize("method", ["coords", "ticks", "closed"])
    def test_methods_agree(self, config_file, capsys, method):
        code, out = run(capsys, "count", "--in", config_file, "--method", method)
        assert code == 0
        assert json.loads(out)["total"] == 2604

    def test_csv_row(self, config_file, capsys):
        _, out = run(capsys, "count", "--in", config_file, "--method", "closed", "--csv")
        assert out == "1728,864,12,2604\n"

    def test_side_filter(self, config_file, capsys):
        _, out = run(
            capsys, "count", "--in", config_file, "--method", "closed",
            "--side-sq", "2",
        )
        assert json.loads(out)["total"] == 2592

    def test_ticks_on_huge_modulus_print_closed_row(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config_to_json(HUGE_MODULUS)))
        rows = [
            run(capsys, "count", "--in", str(path), "--method", method, "--csv")
            for method in ("ticks", "closed")
        ]
        assert rows == [(0, "4,2,1,7\n")] * 2

    def test_coords_total_independent_of_ambient_dim(self, config_file, capsys):
        obj = json.loads(Path(config_file).read_text())
        totals = []
        for ambient_dim in (6, 10**12):
            obj["ambient_dim"] = ambient_dim
            Path(config_file).write_text(json.dumps(obj))
            totals.append(
                run(capsys, "count", "--in", config_file, "--method", "coords", "--csv")
            )
        assert totals == [(0, "2604\n")] * 2

    def test_k_above_n_counts_zero_on_every_route(self, config_file, capsys):
        # 36 points hold no 40-point simplex, and every route says so
        outputs = {
            method: run(capsys, "count", "--in", config_file, "--method", method,
                        "--k", "40", "--csv")
            for method in ("coords", "ticks", "closed")
        }
        assert outputs == {
            "coords": (0, "0\n"), "ticks": (0, "0,0,0,0\n"), "closed": (0, "0,0,0,0\n"),
        }

    @pytest.mark.parametrize("method", ["coords", "ticks", "closed"])
    def test_huge_k_counts_zero(self, config_file, capsys, method):
        # no route builds anything of size k
        row = "0" if method == "coords" else "0,0,0,0"
        assert run(
            capsys, "count", "--in", config_file, "--method", method,
            "--k", "1000000000000", "--csv",
        ) == (0, row + "\n")

    def test_worker_count_does_not_change_bytes(self, config_file, capsys):
        # --workers is accepted and ignored: the tick census has no pool
        outputs = {
            run(capsys, "count", "--in", config_file, "--method", "ticks",
                "--workers", workers)
            for workers in ("1", "2", "5")
        }
        assert outputs == {(0, run(capsys, "count", "--in", config_file,
                                   "--method", "ticks")[1])}


class TestFormula:
    def test_cor13(self, capsys):
        _, out = run(capsys, "formula", "--which", "cor13", "--n", "36", "--r", "3")
        assert json.loads(out)["value"] == 2604

    def test_fk(self, capsys):
        _, out = run(
            capsys, "formula", "--which", "fk", "--partition", "6,6,8", "--k", "3"
        )
        assert json.loads(out) == {"value": 524, "terms": [288, 236, 0]}

    def test_fk_default_k_is_three(self, capsys):
        _, out = run(capsys, "formula", "--which", "fk", "--partition", "6,6,8")
        assert json.loads(out)["value"] == 524

    def test_fk_k4(self, capsys):
        argv = ["formula", "--which", "fk", "--k", "4", "--partition", "5,5,5,5"]
        assert json.loads(run(capsys, *argv)[1])["value"] == 1921

    def test_unit(self, capsys):
        _, out = run(capsys, "formula", "--which", "unit", "--partition", "12,12,12")
        assert json.loads(out)["value"] == 2592

    def test_leading(self, capsys):
        _, out = run(
            capsys, "formula", "--which", "leading", "--n", "36", "--r", "3", "--k", "3"
        )
        assert json.loads(out)["value"] == "1728"


class TestMaximize:
    def test_json(self, capsys):
        _, out = run(capsys, "maximize", "--n", "36", "--r", "3")
        payload = json.loads(out)
        assert payload["value"] == 2604
        assert payload["argmax"] == [[12, 12, 12]]
        assert payload["boundary_touched"] is False


class TestVerify:
    def test_range_report(self, capsys):
        code, out = run(capsys, "verify", "--n", "20..24", "--r", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert "formula=524" in lines[0]
        assert "formula=784" in lines[3]
        assert all(line.endswith("OK") for line in lines)

    def test_single_n(self, capsys):
        code, out = run(capsys, "verify", "--n", "36", "--r", "3")
        assert code == 0
        assert "closed=2604" in out and "ticks=2604" in out

    def test_several_r_concatenate_single_reports(self, capsys):
        singles = [run(capsys, "verify", "--n", "5..9", "--r", r) for r in "345"]
        code, out = run(capsys, "verify", "--n", "5..9", "--r", "3", "4", "5")
        assert code == 0
        assert out == "".join(single for _, single in singles)
        assert [c for c, _ in singles] == [0, 0, 0]

    def test_several_r_with_k(self, capsys):
        code, out = run(capsys, "verify", "--n", "8", "--r", "4", "5", "--k", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n=8 r=4 k=4 ") and lines[1].startswith("n=8 r=5 k=4 ")
        assert all(line.endswith("OK") for line in lines)

    def test_worker_count_does_not_change_bytes(self):
        ok1, rep1 = run_verify(range(3, 15), 3, 3, workers=1)
        ok4, rep4 = run_verify(range(3, 15), 3, 3, workers=4)
        assert ok1 and ok4
        assert rep1.encode() == rep4.encode()


class TestHypergraphCommand:
    def test_make_pattern(self, capsys):
        _, out = run(capsys, "hypergraph", "--make-pattern", "3", "3")
        payload = json.loads(out)
        assert payload["n"] == 10 and len(payload["edges"]) == 6

    def test_blowup_and_contains(self, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        main(["hypergraph", "--make-pattern", "3", "3", "--out", str(h_path)])
        b_path = tmp_path / "b.json"
        main(["hypergraph", "--blowup", "2", "--in", str(h_path), "--out", str(b_path)])
        blown = json.loads(b_path.read_text())
        assert blown["n"] == 20 and len(blown["edges"]) == 48
        _, out = run(capsys, "hypergraph", "--contains", str(b_path), str(h_path))
        assert json.loads(out)["contains"] is True

    def test_contains_with_huge_n(self, tmp_path, capsys):
        big = 10**12
        g_path, h_path = tmp_path / "g.json", tmp_path / "h.json"
        g_path.write_text(json.dumps({"n": big, "k": 3, "edges": [[0, 1, 2], [0, 1, big - 1]]}))
        h_path.write_text(json.dumps({"n": big, "k": 3, "edges": [[7, 8, 9]]}))
        code, out = run(capsys, "hypergraph", "--contains", str(g_path), str(h_path))
        assert code == 0
        assert json.loads(out) == {"contains": True}


#: Placeholders in argv for input files that a test writes first.
CONFIG = "config.json"
PATTERN = "pattern.json"


def assert_one_line_error(capsys, argv) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("regsimplex: error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def _edit_component(config, **fields):
    first = {**config["components"][0], **fields}
    return {**config, "components": [first] + config["components"][1:]}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["maximize", "--n", "2", "--r", "3"],
            ["formula", "--which", "fk", "--k", "4", "--partition", "5,5,5"],
            ["formula", "--which", "fk"],
            ["formula", "--which", "fk", "--partition", "5,x,5"],
            ["formula", "--which", "cor13"],
            ["verify", "--n", "3..x", "--r", "3"],
            ["verify", "--n", "10..3", "--r", "3"],
            ["verify", "--n", "5", "--r", "3", "2"],
            ["verify", "--n", "8", "--r", "5", "3", "--k", "4"],
            ["count", "--in", CONFIG, "--method", "closed", "--side-sq", "1/0"],
            ["count", "--in", CONFIG, "--method", "coords", "--side-sq", "1/0"],
            ["count", "--in", CONFIG, "--method", "closed", "--side-sq", "0"],
            ["count", "--in", CONFIG, "--method", "ticks", "--side-sq", "-2"],
            ["verify", "--n", "3..40", "--r", "3", "4", "5"],
            ["hypergraph", "--blowup", "2"],
            ["hypergraph", "--make-pattern", "3", "3", "--in", PATTERN],
            ["hypergraph", "--contains", PATTERN, PATTERN, "--in", PATTERN],
            ["formula", "--which", "t2r", "--n", "36", "--r", "3", "--k", "5"],
            ["formula", "--which", "fk", "--partition", "6,6,8", "--r", "3"],
            ["formula", "--which", "unit", "--partition", "6,6,8", "--n", "20"],
            ["formula", "--which", "unit", "--partition", "6,6,8", "--r", "3"],
            ["formula", "--which", "unit", "--partition", "6,6,8", "--k", "3"],
            ["formula", "--which", "leading", "--n", "36", "--r", "3", "--partition", "1"],
        ],
    )
    def test_one_line_error(self, tmp_path, capsys, argv):
        files = {CONFIG: ["generate", "--n", "6", "--r", "3"],
                 PATTERN: ["hypergraph", "--make-pattern", "3", "3"]}
        for name, command in files.items():
            if name in argv:
                main(command + ["--out", str(tmp_path / name)])
        assert_one_line_error(capsys, [str(tmp_path / a) if a in files else a for a in argv])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["generate", "--n", "20", "--r", "3", "--odd", "--k", "9"],
             "--k does not go with --odd"),
            (["formula", "--which", "cor13", "--n", "36", "--r", "3", "--k", "5"],
             "--k does not go with --which cor13"),
            (["formula", "--which", "fk", "--partition", "6,6,8", "--n", "99"],
             "--n does not go with --which fk"),
        ],
    )
    def test_unread_option_named(self, capsys, argv, message):
        assert message in assert_one_line_error(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["formula", "--which", "cor13", "--n", "-36", "--r", "3"],
            ["formula", "--which", "leading", "--n", "-10", "--r", "3", "--k", "3"],
        ],
    )
    def test_formula_needs_n_at_least_r(self, capsys, argv):
        assert "need n >= r" in assert_one_line_error(capsys, argv)

    def test_r_below_k_names_r(self, capsys):
        argv = ["verify", "--n", "8", "--r", "5", "3", "--k", "4"]
        assert "--r 3: need r >= k = 4" in assert_one_line_error(capsys, argv)

    def test_r_above_first_n_names_r(self, capsys):
        argv = ["verify", "--n", "3..40", "--r", "3", "4", "5"]
        err = assert_one_line_error(capsys, argv)
        assert "--r 4: need n >= r, but --n starts at 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "6", "--r", "3"],
            ["formula", "--which", "cor13", "--n", "36", "--r", "3"],
            ["verify", "--n", "3", "--r", "3"],
            ["hypergraph", "--make-pattern", "3", "3"],
        ],
    )
    def test_csv_only_on_count_and_maximize(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --csv" in err

    @pytest.fixture
    def config_json(self, tmp_path):
        path = tmp_path / "config.json"
        main(["generate", "--n", "6", "--r", "3", "--out", str(path)])
        return json.loads(path.read_text())

    @pytest.mark.parametrize("method", ["closed", "ticks", "coords"])
    def test_invalid_config_rejected(self, tmp_path, capsys, config_json, method):
        config_json["ambient_dim"] = 2
        config_json["components"][0]["ticks"][0] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config_json))
        assert_one_line_error(capsys, ["count", "--in", str(path), "--method", method])

    @pytest.mark.parametrize("k", ["0", "1", "2"])
    def test_coords_k_below_three(self, tmp_path, capsys, config_json, k):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_json))
        argv = ["count", "--in", str(path), "--method", "coords", "--k", k]
        assert "need k >= 3" in assert_one_line_error(capsys, argv)

    def test_missing_input_file(self, tmp_path, capsys):
        argv = ["count", "--in", str(tmp_path / "absent.json"), "--method", "closed"]
        assert "No such file" in assert_one_line_error(capsys, argv)

    def test_malformed_input_named(self, tmp_path, capsys):
        G, H = tmp_path / "g.json", tmp_path / "h.json"
        main(["hypergraph", "--make-pattern", "3", "3", "--out", str(G)])
        H.write_text("not json")
        err = assert_one_line_error(capsys, ["hypergraph", "--contains", str(G), str(H)])
        assert f"{H}: Expecting value" in err
        assert str(G) not in err

    def test_config_missing_key(self, tmp_path, capsys, config_json):
        del config_json["radius_sq"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config_json))
        argv = ["count", "--in", str(path), "--method", "closed"]
        assert "missing key 'radius_sq'" in assert_one_line_error(capsys, argv)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: [], "config JSON must be an object, got a list"),
            (lambda c: {**c, "ambient_dim": "6"}, "ambient_dim must be an integer"),
            (lambda c: {**c, "ambient_dim": True}, "ambient_dim must be an integer"),
            (lambda c: {**c, "radius_sq": 1.0}, "radius_sq must be a string or an integer"),
            (lambda c: {**c, "radius_sq": "1/0"}, "radius_sq has a zero denominator"),
            (lambda c: {**c, "components": {}}, "components must be a list"),
            (lambda c: {**c, "components": [[]]}, "component 0 must be an object"),
            (lambda c: _edit_component(c, modulus=12.0), "modulus must be an integer"),
            (lambda c: _edit_component(c, ticks="0"), "ticks must be a list"),
            (lambda c: _edit_component(c, ticks=["a"]), "each tick must be an integer"),
            (lambda c: _edit_component(c, ticks=[False]), "each tick must be an integer"),
        ],
    )
    def test_config_json_types(self, tmp_path, capsys, config_json, edit, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(config_json)))
        for method in ("closed", "ticks"):
            argv = ["count", "--in", str(path), "--method", method]
            assert message in assert_one_line_error(capsys, argv)

    # Valid configurations that the coordinate route cannot embed exactly.
    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda c: _edit_component(c, modulus=24, ticks=[1]),
                "tick is not a multiple of 30 degrees; cannot embed exactly",
            ),
            (lambda c: {**c, "radius_sq": "2"}, "embedding assumes unit radius"),
        ],
    )
    def test_coords_refuses_unembeddable(self, tmp_path, capsys, config_json, edit, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(config_json)))
        argv = ["count", "--in", str(path), "--method", "coords"]
        assert message in assert_one_line_error(capsys, argv)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([], "hypergraph JSON must be an object, got a list"),
            ({"n": "3", "k": 3, "edges": []}, "n must be an integer"),
            ({"n": 3, "k": 3.0, "edges": []}, "k must be an integer"),
            ({"n": 3, "k": 3, "edges": {}}, "edges must be a list"),
            ({"n": 3, "k": 3, "edges": [7]}, "each edge must be a list of integers"),
            ({"n": 3, "k": 3, "edges": [[0, 1, "2"]]}, "each edge must be a list of integers"),
            ({"n": -2, "k": 0, "edges": []}, "need n >= 0 and k >= 1, got n=-2, k=0"),
            ({"n": -1, "k": 3, "edges": []}, "need n >= 0 and k >= 1"),
            ({"n": 3, "k": 0, "edges": []}, "need n >= 0 and k >= 1"),
            ({"n": 3, "k": 3, "edges": [[0, 1, True]]}, "each edge must be a list of integers"),
            ({"n": 3, "k": 3, "edges": [[0, 1, 2], [0, 1]]}, "edge of wrong size"),
            ({"n": 3, "k": 3, "edges": [[0, 1, 2], [0, 1, 3]]}, "edge vertex out of range"),
            ({"n": 3, "k": 3, "edges": [[-1, 0, 1]]}, "edge vertex out of range"),
            ({"n": 3, "k": 3, "edges": [[0, 1, 2], [0, 1, 2]]}, "repeated edge"),
            ({"n": 4, "k": 3, "edges": [[0, 1, 2], [1, 3, 2], [2, 0, 1]]}, "repeated edge"),
            ({"n": 3, "k": 3, "edges": [[0, 0, 1]]}, "repeated vertex in an edge"),
            ({"n": 3, "k": 3, "edges": [[0, 1, 2], [2, 2, 2]]}, "repeated vertex in an edge"),
            ({"n": 3, "k": 3, "edges": [[0, 1, 2.0]]}, "each edge must be a list of integers"),
            # True == 1, so only a check by type tells this edge from the first
            (
                {"n": 3, "k": 3, "edges": [[1, 2, 0], [True, 2, 0]]},
                "each edge must be a list of integers",
            ),
        ],
    )
    def test_hypergraph_json_types(self, tmp_path, capsys, obj, message):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(obj))
        argv = ["hypergraph", "--blowup", "2", "--in", str(path)]
        assert message in assert_one_line_error(capsys, argv)
        argv = ["hypergraph", "--contains", str(path), str(path)]
        assert message in assert_one_line_error(capsys, argv)

    def test_hypergraph_missing_key(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 3, "k": 3}))
        argv = ["hypergraph", "--blowup", "2", "--in", str(path)]
        assert "missing key 'edges'" in assert_one_line_error(capsys, argv)

    def test_empty_range_names_the_range(self, capsys):
        assert main(["verify", "--n", "10..3", "--r", "3"]) == 2
        assert "empty range '10..3'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "verify"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, command, workers):
        if command == "count":
            argv = ["count", "--in", str(tmp_path / "c.json"), "--method", "ticks"]
        else:
            argv = ["verify", "--n", "5", "--r", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "verify"])
    @pytest.mark.parametrize(
        "workers,message",
        [
            ("x", "argument --workers: must be a positive integer, got 'x'"),
            ("0", "argument --workers: must be at least 1, got 0"),
        ],
    )
    def test_workers_message(self, tmp_path, capsys, command, workers, message):
        if command == "count":
            argv = ["count", "--in", str(tmp_path / "c.json"), "--method", "ticks"]
        else:
            argv = ["verify", "--n", "5", "--r", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"regsimplex {command}: error: {message}"

    def test_process_exit_code(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "regsimplex.cli", "formula", "--which", "fk"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "regsimplex: error: --partition is required for --which fk and unit\n"
        )


def outcome(capsys, argv):
    """(stdout, stderr, exit code) of main(argv); a usage error's or
    --help's SystemExit code counts as the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


class TestDispatch:
    # main builds only the dispatched subcommand's arguments; these are the
    # argv whose handling could tell that parser from the full one.
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["bogus"],
            *([command, "--help"] for command in
              ("generate", "count", "formula", "maximize", "verify", "hypergraph")),
            ["maximize", "--n", "5"],
            ["maximize", "--n", "5", "--r", "3", "--bogus"],
            # the command is not argv[0] here
            ["--bogus", "maximize", "--n", "12", "--r", "3"],
            ["--", "maximize", "--n", "12", "--r", "3"],
            # a subcommand name as an option value
            ["verify", "--n", "5", "--r", "3", "--workers", "maximize"],
            # the other subcommands have no -h; each of these reaches only
            # the top-level one or the dispatched one's
            ["-h", "maximize"],
            ["maximize", "--n", "12", "--r", "3", "-h"],
            ["--", "-h"],
            ["--help", "bogus"],
        ],
        ids=lambda argv: " ".join(argv) or "no arguments",
    )
    def test_same_bytes_as_full_parser(self, capsys, monkeypatch, argv):
        dispatched = outcome(capsys, argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda populate: full())
        assert outcome(capsys, argv) == dispatched

    def test_maximize_builds_its_own_arguments_only(self, capsys, monkeypatch):
        # -h, --n, --r, --k, --csv and --out for maximize, and the top-level
        # -h; the five other subcommands get none (12 with their -h each)
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert outcome(capsys, ["maximize", "--n", "12", "--r", "3"])[2] == 0
        assert len(calls) == 7

    def test_no_parser_kept_between_calls(self, capsys):
        maximize = ["maximize", "--n", "12", "--r", "3"]
        first = outcome(capsys, maximize)
        assert outcome(capsys, ["verify", "--n", "5", "--r", "3"])[2] == 0
        assert outcome(capsys, ["hypergraph", "--make-pattern", "3", "3"])[2] == 0
        assert outcome(capsys, maximize) == first
        assert first[2] == 0


class TestImports:
    def test_no_dataclasses_or_inspect(self):
        # dataclasses pulls in inspect, ast, dis and tokenize: about 1 MB of
        # memory and a third of the package's import time.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "import sys; before = set(sys.modules); "
            "import regsimplex.cli, regsimplex.hypergraph; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        assert proc.stdout == "[]\n"
