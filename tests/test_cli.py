"""CLI subcommands: artifact writing, exit codes, determinism."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rssi_occupancy import cli
from rssi_occupancy.dataset import serialize_dataset, serialize_sidecar
from rssi_occupancy.simulator import simulate

from conftest import small_scenario
from test_dataset import (
    BEYOND_INT64_GOOD_LINE,
    BEYOND_INT64_HEADER,
    BEYOND_INT64_LINES,
    BEYOND_INT64_SIDECAR,
)

SCENARIO_TEXT = """\
sampling_hz = 45
duration_s = 60
seed = 42
pl0_dbm = -45
d0_cm = 100
exponent = 2.0
shadow_sigma_db = 1.0
atten_db_per_person = 6.0
extra_sigma_db_per_person = 1.0
transmitter = AA:01 100
transmitter = AA:02 250
event = 0 0
event = 20 1
event = 40 2
"""

# A sidecar or scenario byte that is not UTF-8 is named by its line, as a dataset CSV byte is.
UNDECODABLE_ON_LINE_3 = "error: line 3: not valid utf-8: b'\\xff' (invalid start byte)\n"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO_TEXT)
    return path


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """A parse-ready dataset rendered from the shared small scenario."""
    directory = tmp_path_factory.mktemp("data")
    dataset = simulate(small_scenario())
    csv_path = directory / "d.csv"
    csv_path.write_text(serialize_dataset(dataset))
    (directory / "d.sidecar").write_text(serialize_sidecar(dataset))
    return csv_path


@pytest.fixture(scope="module")
def dataset_files_20hz(tmp_path_factory):
    """The shared small scenario rendered at 20 Hz."""
    directory = tmp_path_factory.mktemp("data20")
    dataset = simulate(small_scenario(sampling_hz=20.0, duration_s=60.0))
    csv_path = directory / "d.csv"
    csv_path.write_text(serialize_dataset(dataset))
    (directory / "d.sidecar").write_text(serialize_sidecar(dataset))
    return csv_path


class TestSimulate:
    def test_writes_csv_and_sidecar_deterministically(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "d.csv"
        args = ["simulate", "--scenario", str(scenario_file), "--seed", "42", "--out", str(out)]
        assert cli.main(args) == 0
        first = out.read_bytes()
        sidecar = (tmp_path / "d.sidecar").read_text()
        assert "sampling_hz = 45" in sidecar
        assert cli.main(args) == 0
        assert out.read_bytes() == first
        assert "wrote 2700 records" in capsys.readouterr().out

    def test_row_count_matches_duration_times_rate(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "d.csv"
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 2701  # header + 60 s * 45 Hz
        assert "seed: 42 (from scenario)" in capsys.readouterr().err  # no --seed: the one used

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--scenario", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "d.csv")]
        )
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_undecodable_scenario_byte_exits_2_naming_its_line(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_bytes(SCENARIO_TEXT.encode().replace(b"seed = 42", b"seed = \xff42"))
        code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err == UNDECODABLE_ON_LINE_3
        assert not (tmp_path / "d.csv").exists()

    def test_non_finite_scenario_value_exits_2_naming_the_key(self, tmp_path, capsys):
        # NaN passes the range checks' < and <=; unchecked, it renders RSSI 0 on every row
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(SCENARIO_TEXT.replace("exponent = 2.0", "exponent = nan"))
        code = cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "exponent must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_partial_outputs_removed_on_failure(self, tmp_path, scenario_file):
        out = tmp_path / "d.csv"
        sidecar = tmp_path / "not_a_dir" / "d.sidecar"
        code = cli.main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--sidecar", str(sidecar)]
        )
        assert code == 1
        assert not out.exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            cli._ArtifactWriter().write(tmp_path / "d.csv", "text")
        assert list(tmp_path.iterdir()) == []


class TestValidate:
    def test_valid_dataset_exits_0(self, dataset_files, capsys):
        assert cli.main(["validate", str(dataset_files)]) == 0
        assert "dataset valid" in capsys.readouterr().out

    def test_invalid_dataset_exits_2_naming_the_line(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        csv.write_text("timestamp,M1,occupancy,count\n1,-50,true,1\n2,5,true,1\n")
        (tmp_path / "x.sidecar").write_text("sampling_hz = 45\nM1 = 100\n")
        assert cli.main(["validate", str(csv)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", BEYOND_INT64_LINES, ids=("count", "epoch_ms"))
    def test_integer_beyond_int64_exits_2_naming_the_line(self, tmp_path, capsys, line, message):
        csv = tmp_path / "x.csv"
        csv.write_text(f"{BEYOND_INT64_HEADER}\n{BEYOND_INT64_GOOD_LINE}\n{line}\n")
        (tmp_path / "x.sidecar").write_text(BEYOND_INT64_SIDECAR)
        assert cli.main(["validate", str(csv)]) == 2
        assert capsys.readouterr().err == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("rate", ("inf", "nan"))
    def test_non_finite_sidecar_rate_exits_2_naming_the_line(self, tmp_path, capsys, rate):
        # before any featurize: an infinite rate once passed validate and overflowed there
        csv = tmp_path / "x.csv"
        csv.write_text("timestamp,M1,occupancy,count\n1,-50,true,1\n")
        (tmp_path / "x.sidecar").write_text(f"M1 = 100\nsampling_hz = {rate}\n")
        assert cli.main(["validate", str(csv)]) == 2
        expected = f"error: line 2: sampling_hz must be positive and finite, got {rate}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("line", [500, 8000])
    def test_undecodable_byte_exits_2_naming_its_line(self, tmp_path, dataset_files, capsys, line):
        # 8,101 CRLF lines, more than one chunk: the error names the line, not an offset
        lines = dataset_files.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
        csv = tmp_path / "x.csv"
        csv.write_bytes(b"\r\n".join(lines))
        (tmp_path / "x.sidecar").write_bytes(dataset_files.with_suffix(".sidecar").read_bytes())
        assert cli.main(["validate", str(csv)]) == 2
        expected = f"error: line {line}: not valid utf-8: b'\\xff' (invalid start byte)\n"
        assert capsys.readouterr().err == expected

    def test_undecodable_sidecar_byte_exits_2_naming_its_line(
        self, tmp_path, dataset_files, capsys
    ):
        lines = dataset_files.with_suffix(".sidecar").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"= ", b"= \xff", 1)
        csv = tmp_path / "x.csv"
        csv.write_bytes(dataset_files.read_bytes())
        (tmp_path / "x.sidecar").write_bytes(b"\n".join(lines))
        assert cli.main(["validate", str(csv)]) == 2
        assert capsys.readouterr().err == UNDECODABLE_ON_LINE_3

    def test_missing_sidecar_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        csv.write_text("timestamp,M1,occupancy,count\n")
        assert cli.main(["validate", str(csv)]) == 2


class TestFeaturize:
    def test_header_names_and_rerun_identical(self, tmp_path, dataset_files):
        out = tmp_path / "features.csv"
        args = ["featurize", str(dataset_files), "--out", str(out)]
        assert cli.main(args) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 3 * 56 + 2
        assert header[0] == "AA:BB:CC:00:00:01/max"
        assert header[-2:] == ["label_occupancy", "label_count"]
        assert all("/" in name for name in header[:-2])
        first = out.read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first

    def test_crlf_copy_writes_the_same_bytes(self, tmp_path, dataset_files):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(dataset_files.read_bytes().replace(b"\n", b"\r\n"))
        (tmp_path / "crlf.sidecar").write_bytes(dataset_files.with_suffix(".sidecar").read_bytes())
        assert cli.main(["featurize", str(dataset_files), "--out", str(tmp_path / "lf.out")]) == 0
        assert cli.main(["featurize", str(crlf), "--out", str(tmp_path / "crlf.out")]) == 0
        assert (tmp_path / "crlf.out").read_bytes() == (tmp_path / "lf.out").read_bytes()

    def test_too_short_dataset_fails(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("timestamp,M1,occupancy,count\n1,-50,false,0\n")
        (tmp_path / "tiny.sidecar").write_text("sampling_hz = 45\nM1 = 100\n")
        code = cli.main(["featurize", str(csv), "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert not (tmp_path / "f.csv").exists()

    def test_windows_under_four_samples_exit_2_naming_length_and_rate(self, tmp_path, capsys):
        csv = tmp_path / "slow.csv"
        rows = "".join(f"{i * 333},-50,false,0\n" for i in range(12))
        csv.write_text("timestamp,M1,occupancy,count\n" + rows)
        (tmp_path / "slow.sidecar").write_text("sampling_hz = 3\nM1 = 100\n")
        code = cli.main(["featurize", str(csv), "--window-s", "1", "--out", str(tmp_path / "f.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "windows of 3 samples at 3 Hz are too short" in err
        assert ">= 4 samples" in err
        assert not (tmp_path / "f.csv").exists()


class TestEvaluate:
    def test_detection_happy_path(self, tmp_path, dataset_files, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "evaluate", str(dataset_files),
                "--task", "detection",
                "--models", "knn",
                "--k", "3",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["best_family"] == "knn"
        assert report["task"] == "detection"
        assert 0.0 <= report["families"][0]["test"]["accuracy"] <= 1.0
        assert report["run_config"]["seed"] == 7
        assert report["versions"]["rssi_occupancy"]
        scores = (tmp_path / "report.scores.csv").read_text().splitlines()
        assert scores[0] == "family,config_index,params,cv_mean,cv_sd,folds_failed"
        assert len(scores) == 1 + 4  # knn grid has 4 configs
        summary = capsys.readouterr().out
        assert "best family: knn" in summary

    def test_detection_raw_is_usage_error(self, tmp_path, dataset_files, capsys):
        code = cli.main(
            [
                "evaluate", str(dataset_files),
                "--task", "detection",
                "--representation", "raw",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "features" in capsys.readouterr().err

    def test_counting_raw_cadence_in_report(self, tmp_path, dataset_files):
        out = tmp_path / "raw.json"
        code = cli.main(
            [
                "evaluate", str(dataset_files),
                "--task", "counting",
                "--representation", "raw",
                "--models", "linear",
                "--k", "3",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "per-sample" in report["prediction_cadence"]
        assert "22.2" in report["prediction_cadence"]  # 45 Hz -> one estimate each 22.2 ms

    def test_omitted_seed_is_logged(self, tmp_path, dataset_files, capsys):
        code = cli.main(
            [
                "evaluate", str(dataset_files),
                "--task", "counting",
                "--models", "linear",
                "--k", "3",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        drawn = re.search(r"seed: (\d+) \(randomly selected\)", capsys.readouterr().err)
        assert drawn and int(drawn.group(1)) < 2**32

    def test_importing_the_cli_loads_no_openssl(self):
        # The seed comes from os.urandom: importing secrets would load hashlib's OpenSSL.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import rssi_occupancy.cli; print(sorted(sys.modules))"
        )
        modules = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert "'rssi_occupancy.cli'" in modules
        assert "'_hashlib'" not in modules

    @pytest.mark.parametrize(
        "window_s, message",
        [
            ("0", "window_s must be positive"),
            ("0.05", "holds 1 < 2 samples"),
            ("0.15", "windows of 3 samples at 20 Hz are too short"),
            ("inf", "window_s must be positive and finite, got inf"),
            ("nan", "window_s must be positive and finite, got nan"),
        ],
        ids=["0", "0.05", "0.15", "inf", "nan"],
    )
    def test_bad_window_is_a_usage_error_as_in_featurize(
        self, tmp_path, dataset_files_20hz, capsys, window_s, message
    ):
        data, window = str(dataset_files_20hz), ["--window-s", window_s]
        assert cli.main(["featurize", data, *window, "--out", str(tmp_path / "f.csv")]) == 2
        featurize_err = capsys.readouterr().err
        code = cli.main(
            ["evaluate", data, "--task", "detection", "--models", "lda", "--k", "3", "--seed", "7",
             *window, "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert capsys.readouterr().err == featurize_err
        assert message in featurize_err
        assert list(tmp_path.iterdir()) == []

    def test_failed_stage_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # 60 s of an empty room at 20 Hz: dedup leaves too few windows to fit and score
        scenario = tmp_path / "empty.cfg"
        scenario.write_text(
            SCENARIO_TEXT.replace("sampling_hz = 45", "sampling_hz = 20").split("event")[0]
        )
        data = tmp_path / "empty.csv"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = cli.main(
            ["evaluate", str(data), "--task", "detection", "--models", "lda", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stage '")
        assert not out.exists()
        assert not (tmp_path / "r.scores.csv").exists()

    def test_family_listed_twice_exits_2(self, tmp_path, dataset_files, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["evaluate", str(dataset_files), "--task", "detection",
                         "--models", "lda,lda", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_fails_cleanly(self, tmp_path, dataset_files, capsys):
        code = cli.main(
            [
                "evaluate", str(dataset_files),
                "--task", "detection",
                "--models", "resnet",
                "--seed", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "r.json").exists()
