import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regsimplex.cli import main, run_verify
from regsimplex.lenz import config_from_json


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
        ],
    )
    def test_one_line_error(self, capsys, argv):
        assert_one_line_error(capsys, argv)

    def test_r_below_k_names_r(self, capsys):
        argv = ["verify", "--n", "8", "--r", "5", "3", "--k", "4"]
        assert "--r 3: need r >= k = 4" in assert_one_line_error(capsys, argv)

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

    def test_missing_input_file(self, tmp_path, capsys):
        argv = ["count", "--in", str(tmp_path / "absent.json"), "--method", "closed"]
        assert "No such file" in assert_one_line_error(capsys, argv)

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

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([], "hypergraph JSON must be an object, got a list"),
            ({"n": "3", "k": 3, "edges": []}, "n must be an integer"),
            ({"n": 3, "k": 3.0, "edges": []}, "k must be an integer"),
            ({"n": 3, "k": 3, "edges": {}}, "edges must be a list"),
            ({"n": 3, "k": 3, "edges": [7]}, "each edge must be a list of integers"),
            ({"n": 3, "k": 3, "edges": [[0, 1, "2"]]}, "each edge must be a list of integers"),
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
