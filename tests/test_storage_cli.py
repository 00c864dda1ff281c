import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from asvid import cli, oracle, storage
from asvid.cli import main
from asvid.dataprep import GeoReference, PreparedDataset
from asvid.errors import SchemaError
from asvid.files import from_json
from asvid.estimator import identify_from_systems
from asvid.model import ThrustStaticParams
from asvid.oracle import known_params_to_X, sigma_coeffs
from asvid.regressors import build_systems


def identify(ds, kind):
    return identify_from_systems(kind, build_systems(ds, kind), ds.h)


class TestRawLogs:
    def test_round_trip(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path, small_bundle)
        back = storage.read_raw_logs(tmp_path)
        assert np.array_equal(back.gnss_t, small_bundle.gnss_t)
        assert np.array_equal(back.lat, small_bundle.lat)
        assert np.array_equal(back.psi, small_bundle.psi)
        assert np.array_equal(back.pwm_r, small_bundle.pwm_r)

    def test_missing_file_names_it(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path, small_bundle)
        (tmp_path / "pwm.csv").unlink()
        with pytest.raises(FileNotFoundError, match="pwm.csv"):
            storage.read_raw_logs(tmp_path)

    def test_missing_column_names_it(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path, small_bundle)
        text = (tmp_path / "gnss.csv").read_text().replace("t,lat,lon", "t,latitude,lon")
        (tmp_path / "gnss.csv").write_text(text)
        with pytest.raises(SchemaError, match="lat"):
            storage.read_raw_logs(tmp_path)

    def test_adapter_renames_columns(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path, small_bundle)
        text = (tmp_path / "gnss.csv").read_text().replace("t,lat,lon", "stamp,latitude,longitude")
        (tmp_path / "gnss.csv").write_text(text)
        adapter = {"gnss": {"t": "stamp", "lat": "latitude", "lon": "longitude"}}
        back = storage.read_raw_logs(tmp_path, adapter=adapter)
        assert np.array_equal(back.lat, small_bundle.lat)

    def test_non_numeric_cell_rejected(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path, small_bundle)
        lines = (tmp_path / "heading.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
        (tmp_path / "heading.csv").write_text("\n".join(lines))
        with pytest.raises(SchemaError, match="heading.csv:4"):
            storage.read_raw_logs(tmp_path)


# text of a two-column file, and the columns and records it reads as
READER_CASES = {
    "plain": ("t,a\n0.0,1.5\n0.2,2.5\n", [[0.0, 0.2], [1.5, 2.5]], []),
    "crlf": ("t,a\r\n# h=0.2\r\n0.0,1.5\r\n0.2,2.5\r\n", [[0.0, 0.2], [1.5, 2.5]], ["# h=0.2"]),
    "cr-only": ("t,a\r0.0,1.5\r0.2,2.5\r", [[0.0, 0.2], [1.5, 2.5]], []),
    "quoted": ('"t","a"\n"0.0","1.5"\n0.2,"2.5"\n', [[0.0, 0.2], [1.5, 2.5]], []),
    "spaces": ("t,a\n 0.0 ,\t1.5\n0.2 , 2.5 \n", [[0.0, 0.2], [1.5, 2.5]], []),
    "comments-and-blanks": (
        "\n# before\n\nt,a\n# h=0.2\n0.0,1.5\n\n# inside\n0.2,2.5\n\n",
        [[0.0, 0.2], [1.5, 2.5]], ["# before", "# h=0.2", "# inside"],
    ),
    "wider-row": ("t,a\n0.0,1.5,9,x\n0.2,2.5\n", [[0.0, 0.2], [1.5, 2.5]], []),
    "trailing-comma": ("t,a,\n0.0,1.5,\n0.2,2.5,\n", [[0.0, 0.2], [1.5, 2.5]], []),
    "columns-reordered": ("a,x,t\n1.5,7,0.0\n2.5,8,0.2\n", [[0.0, 0.2], [1.5, 2.5]], []),
    "header-only": ("t,a\n", [[], []], []),
    "header-and-records-only": ("t,a\n# h=0.2\n\n", [[], []], ["# h=0.2"]),
    "no-final-newline": ("t,a\n0.0,1.5\n0.2,2.5", [[0.0, 0.2], [1.5, 2.5]], []),
}


class TestCsvReader:
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_reads_columns_and_records(self, tmp_path, case):
        text, want, records = READER_CASES[case]
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols, got_records = storage._read_csv(path, ("t", "a"))
        assert [cols["t"].tolist(), cols["a"].tolist()] == want
        assert all(cols[n].dtype == np.float64 and cols[n].flags.c_contiguous for n in cols)
        assert got_records == records

    @pytest.mark.parametrize("line, where", [
        ("0.0,1.0#x", "f.csv:3: column 'a'"),
        ("0.0#x,1.0", "f.csv:3: column 't'"),
        ("0.0,1_0", "f.csv:3: column 'a'"),
        ("0.0,abc", "f.csv:3: column 'a'"),
        ("0.0", "f.csv:3: column 'a': missing from a short row"),
        ("0.0,", "f.csv:3: column 'a'"),
        ("   ", "f.csv:3: column 't'"),
    ])
    def test_bad_line_names_file_line_and_column(self, tmp_path, line, where):
        path = tmp_path / "f.csv"
        path.write_text(f"t,a\n0.0,1.5\n{line}\n0.4,2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match=re.escape(where)):
                storage._read_csv(path, ("t", "a"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"t,a\n0.0,\xff\n")
        with pytest.raises(SchemaError, match="f.csv: not UTF-8 text"):
            storage._read_csv(path, ("t", "a"))

    def test_no_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# only a record\n\n")
        with pytest.raises(SchemaError, match="f.csv: no header line"):
            storage._read_csv(path, ("t", "a"))


class TestRawLogFaults:
    @pytest.fixture(scope="class")
    def static_600s(self, gt_static):
        traj = oracle.simulate_continuous(gt_static, oracle.smooth_excitation(), duration=600.0)
        return oracle.emit_sensor_logs(traj, GeoReference(lat0=37.4, lon0=-6.0))

    def edit(self, path, index, change):
        lines = path.read_text().splitlines()
        lines[index:index + 1] = change(lines[index])
        path.write_text("\n".join(lines) + "\n")

    def prepare(self, logs, out):
        return main(["prepare", "--logs", str(logs), "--out", str(out)])

    def test_nan_latitude_is_dropped_and_prepares(self, tmp_path, static_600s, capsys):
        storage.write_raw_logs(tmp_path / "logs", static_600s)
        self.edit(tmp_path / "logs" / "gnss.csv", 500,
                  lambda line: [",".join([line.split(",")[0], "nan", line.split(",")[2]])])
        with pytest.warns(UserWarning, match=r"gnss.csv: dropped 1 row\(s\) with a non-finite "
                                             r"cell, the first at line 501"):
            assert self.prepare(tmp_path / "logs", tmp_path / "prep") == 0
        assert storage.read_prepared_csv(tmp_path / "prep" / "prepared.csv").n_samples > 2900

    def test_duplicated_pwm_row_is_dropped_and_prepares(self, tmp_path, static_600s, capsys):
        storage.write_raw_logs(tmp_path / "logs", static_600s)
        self.edit(tmp_path / "logs" / "pwm.csv", 40, lambda line: [line, line])
        with pytest.warns(UserWarning, match=r"pwm.csv: dropped 1 row\(s\) that repeat the row "
                                             r"before, the first at line 42"):
            back = storage.read_raw_logs(tmp_path / "logs")
        assert np.array_equal(back.pwm_t, static_600s.pwm_t)
        with pytest.warns(UserWarning, match="pwm.csv: dropped 1"):
            assert self.prepare(tmp_path / "logs", tmp_path / "prep") == 0

    def test_backwards_pwm_timestamp_names_file_and_line(self, tmp_path, small_bundle, capsys):
        storage.write_raw_logs(tmp_path / "logs", small_bundle)
        path = tmp_path / "logs" / "pwm.csv"
        lines = path.read_text().splitlines()
        lines[20], lines[21] = lines[21], lines[20]
        path.write_text("\n".join(lines) + "\n")
        where = "pwm.csv:22: column 't': timestamps must be strictly increasing"
        with pytest.raises(SchemaError, match=re.escape(where)):
            storage.read_raw_logs(tmp_path / "logs")
        assert self.prepare(tmp_path / "logs", tmp_path / "prep") == 2
        assert where in capsys.readouterr().err

    def test_drop_warning_counts_rows_and_names_the_first(self, tmp_path):
        (tmp_path / "gnss.csv").write_text(
            "t,lat,lon\n0.0,1.0,2.0\n1.0,nan,2.0\n2.0,1.0,inf\n3.0,1,2\n"
        )
        (tmp_path / "heading.csv").write_text("t,psi\n0.0,0.1\n")
        (tmp_path / "pwm.csv").write_text("t,pwm_l,pwm_r\n0.0,1500,1500\n")
        with pytest.warns(UserWarning, match=r"gnss.csv: dropped 2 row\(s\) .*first at line 3"):
            back = storage.read_raw_logs(tmp_path)
        assert back.gnss_t.tolist() == [0.0, 3.0]

    def test_repeated_time_with_other_values_is_an_error(self, tmp_path, small_bundle):
        storage.write_raw_logs(tmp_path / "logs", small_bundle)
        self.edit(tmp_path / "logs" / "heading.csv", 9,
                  lambda line: [line, line.split(",")[0] + ",0.5"])
        with pytest.raises(SchemaError, match=re.escape("heading.csv:11: column 't'")):
            storage.read_raw_logs(tmp_path / "logs")


class TestPreparedCsv:
    def test_round_trip_bitwise(self, tmp_path, ds_static):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        back = storage.read_prepared_csv(path)
        assert back.h == ds_static.h
        for name, want in ds_static.columns().items():
            assert np.array_equal(getattr(back, name), want), name

    def test_header_contract(self, tmp_path, ds_static):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        header = path.read_text().splitlines()[0]
        assert header == "t,segment,u,v,r,delta_mean,delta_diff,region"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "prepared.csv"
        path.write_text("t,segment,u,v\n0.0,0,0.0,0.0\n")
        with pytest.raises(SchemaError):
            storage.read_prepared_csv(path)

    def test_h_record_follows_header(self, tmp_path, ds_static):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        assert path.read_text().splitlines()[1] == f"# h={ds_static.h!r}"

    def test_file_without_h_record_still_read(self, tmp_path, ds_static):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        back = storage.read_prepared_csv(path)
        assert back.h == pytest.approx(ds_static.h, rel=1e-12)
        assert np.array_equal(back.u, ds_static.u)

    @pytest.mark.parametrize("column, cell", [
        (2, "abc"), (2, "nan"), (0, "inf"), (1, "1.5"), (7, "XX"), (7, None),
    ])
    def test_bad_cell_names_file_line_and_column(self, tmp_path, ds_static, column, cell):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column:column + 1] = [] if cell is None else [cell]  # None: a short row
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        name = storage.PREPARED_HEADER[column]
        with pytest.raises(SchemaError, match=f"prepared.csv:5: column '{name}'"):
            storage.read_prepared_csv(path)

    def test_comment_and_blank_lines_are_not_rows(self, tmp_path, ds_static):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["# note", *lines[:5], "", "# another", *lines[5:]]) + "\n")
        back = storage.read_prepared_csv(path)
        assert back.h == ds_static.h
        assert np.array_equal(back.u, ds_static.u)

    @pytest.mark.parametrize("value", ["abc", "inf", "-0.2"])
    def test_malformed_h_record_rejected(self, tmp_path, ds_static, value):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds_static)
        lines = path.read_text().splitlines()
        lines[1] = f"# h={value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="prepared.csv"):
            storage.read_prepared_csv(path)


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path, ds_static):
        model = identify(ds_static, "static")
        path = tmp_path / "model.json"
        storage.write_model_file(path, model, {"note": 1})
        back = storage.read_model_file(path)
        assert back.kind == "static"
        assert np.array_equal(back.surge, model.surge)
        assert np.array_equal(back.sway, model.sway)
        assert np.array_equal(back.yaw, model.yaw)
        assert back.alpha is None

    def test_version_gate(self, tmp_path, ds_static):
        model = identify(ds_static, "static")
        path = tmp_path / "model.json"
        storage.write_model_file(path, model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="version"):
            storage.read_model_file(path)

    def test_unit_labels_mirror_parameter_tables(self, tmp_path, gt_static, gt_dynamic):
        def units(kind, gt):
            path = tmp_path / f"{kind}.json"
            storage.write_expected_x(path, kind, known_params_to_X(gt, kind))
            vectors = json.loads(path.read_text())["vectors"]
            return {axis: [row["unit"] for row in rows] for axis, rows in vectors.items()}

        static, dynamic = units("static", gt_static), units("dynamic", gt_dynamic)
        assert static["u"] == ["(m/s)^-1", "(m/s)^-1", "(m/s)^-1", "-", "m/s", "m/s", "m/s"]
        labels_v = static["v"]
        assert len(labels_v) == 13 and labels_v == static["r"]
        assert labels_v[6] == "-" and labels_v[8] == "m/s"
        dyn_u = dynamic["u"]
        assert len(dyn_u) == 11 and dyn_u[0] == "-" and dyn_u[4] == "-"
        dyn_v = dynamic["v"]
        assert len(dyn_v) == 21 and dyn_v[7] == "-" and dyn_v[8] == "-" and dyn_v[15] == "-"
        assert dyn_v == dynamic["r"]

    def test_write_read_write_identical(self, tmp_path, ds_static, ds_dynamic):
        for model in (identify(ds_static, "static"), identify(ds_dynamic, "dynamic")):
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            storage.write_model_file(first, model, {"dataset_sha256": "ab", "created_unix": 0})
            storage.write_model_file(second, storage.read_model_file(first))
            assert second.read_bytes() == first.read_bytes()
            doc = json.loads(first.read_text())
            assert doc["rows_used"] is not None and doc["residual_norms"] is not None
            assert (doc["alpha_stable"] is None) == (model.kind == "static")


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path, gt_dynamic):
        path = tmp_path / "gt.json"
        storage.write_ground_truth(path, gt_dynamic)
        back = storage.parse_ground_truth(storage.read_json(path), path.name)
        assert back == gt_dynamic

    def test_round_trip_with_overrides(self, tmp_path, gt_static):
        gt = replace(
            gt_static,
            thrust=ThrustStaticParams(1.0, 2.0, 3.0, 4.0, dead_zone_forward=0.05,
                                      dead_zone_reverse=-0.04),
        )
        path = tmp_path / "gt.json"
        storage.write_ground_truth(path, gt)
        assert storage.parse_ground_truth(storage.read_json(path), path.name) == gt

    def test_sigma_override_has_no_file_form(self, tmp_path, gt_static):
        path = tmp_path / "gt.json"
        override = {axis: dict.fromkeys(c, 0.0) for axis, c in sigma_coeffs(gt_static).items()}
        with pytest.raises(ValueError, match="sigma_override"):
            storage.write_ground_truth(path, replace(gt_static, sigma_override=override))
        assert not path.exists()
        storage.write_ground_truth(path, gt_static)
        doc = json.loads(path.read_text())
        doc["sigma_override"] = override
        with pytest.raises(SchemaError, match=r"'ground_truth\.sigma_override': is not a known"):
            storage.parse_ground_truth(doc, path.name)

    def test_missing_field_reported(self, tmp_path, gt_static):
        path = tmp_path / "gt.json"
        storage.write_ground_truth(path, gt_static)
        doc = json.loads(path.read_text())
        del doc["y_v"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="y_v"):
            storage.parse_ground_truth(storage.read_json(path), path.name)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_full_pipeline(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"duration_s": 60.0}}))
        assert self.run("--config", str(cfg), "simulate", "--out", str(logs), "--seed", "1") == 0
        for name in ("gnss.csv", "heading.csv", "pwm.csv", "ground_truth.json", "expected_x.json"):
            assert (logs / name).exists()

        prep = tmp_path / "prep"
        assert self.run("prepare", "--logs", str(logs), "--out", str(prep)) == 0
        summary = json.loads((prep / "summary.json").read_text())
        assert summary["minutes"] == pytest.approx(summary["points"] * 0.2 / 60.0)

        modeldir = tmp_path / "model"
        assert self.run(
            "identify", "--prepared", str(prep / "prepared.csv"), "--kind", "static",
            "--out", str(modeldir),
        ) == 0
        doc = json.loads((modeldir / "model.json").read_text())
        assert doc["h"] == 0.2
        assert [len(doc["vectors"][a]) for a in ("u", "v", "r")] == [7, 13, 13]
        assert doc["alpha"] is None

        val = tmp_path / "val"
        assert self.run(
            "validate", "--prepared", str(prep / "prepared.csv"), "--kind", "static",
            "--seed", "3", "--out", str(val), "--sweep", "0.6,0.5",
        ) == 0
        metrics = json.loads((val / "metrics.json").read_text())
        assert metrics["validation"]["r2"]["u"] > 0.99
        assert len(metrics["sweep"]) == 2
        n_traces = len((val / "traces.csv").read_text().splitlines()) - 1
        assert n_traces == sum(metrics["validation"]["evaluated"].values())

        report = tmp_path / "report.txt"
        assert self.run("report", "--metrics", str(val / "metrics.json"), "--out", str(report)) == 0
        text = report.read_text()
        assert "Validation metrics" in text and "Training share" in text
        capsys.readouterr()

    def test_dynamic_identify_layout(self, tmp_path, ds_dynamic, capsys):
        prep = tmp_path / "prepared.csv"
        storage.write_prepared_csv(prep, ds_dynamic)
        out = tmp_path / "model"
        assert self.run("identify", "--prepared", str(prep), "--kind", "dynamic",
                        "--out", str(out)) == 0
        doc = json.loads((out / "model.json").read_text())
        assert [len(doc["vectors"][a]) for a in ("u", "v", "r")] == [11, 21, 21]
        assert doc["h"] == ds_dynamic.h
        assert doc["alpha"] == pytest.approx(0.9, abs=1e-6)
        assert doc["alpha_stable"] is True
        assert "alpha=0.9" in capsys.readouterr().out

    def test_validate_with_existing_model(self, tmp_path, ds_static, capsys):
        prep = tmp_path / "prepared.csv"
        storage.write_prepared_csv(prep, ds_static)
        modeldir = tmp_path / "m"
        assert self.run("identify", "--prepared", str(prep), "--kind", "static",
                        "--out", str(modeldir)) == 0
        out = tmp_path / "val"
        assert self.run("validate", "--prepared", str(prep), "--model",
                        str(modeldir / "model.json"), "--kind", "static", "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["validation"]["r2"]["u"] > 0.999
        capsys.readouterr()

    def test_missing_pwm_gives_exit_2(self, tmp_path, small_bundle, capsys):
        logs = tmp_path / "logs"
        storage.write_raw_logs(logs, small_bundle)
        (logs / "pwm.csv").unlink()
        code = self.run("prepare", "--logs", str(logs), "--out", str(tmp_path / "prep"))
        assert code == 2
        assert "pwm.csv" in capsys.readouterr().err

    def test_numerical_failure_gives_exit_1(self, tmp_path, capsys):
        # a dataset with too few usable rows cannot be identified
        prep = tmp_path / "prepared.csv"
        lines = ["t,segment,u,v,r,delta_mean,delta_diff,region"]
        for k in range(4):
            lines.append(f"{0.2 * k!r},0,0.1,0.0,0.0,0.3,0.0,FF")
        prep.write_text("\n".join(lines) + "\n")
        code = self.run("identify", "--prepared", str(prep), "--kind", "static",
                        "--out", str(tmp_path / "m"))
        assert code == 1
        capsys.readouterr()

    def test_linalg_error_gives_exit_1(self, tmp_path, ds_static, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError: main catches it without naming numpy.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "identify_from_systems", no_convergence)
        prep = tmp_path / "prepared.csv"
        storage.write_prepared_csv(prep, ds_static)
        code = self.run("identify", "--prepared", str(prep), "--kind", "static",
                        "--out", str(tmp_path / "m"))
        assert code == 1
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    def test_simulate_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"duration_s": 20.0,
                                                "excitation": {"type": "prbs"}}}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run("--config", str(cfg), "simulate", "--out", str(out1), "--seed", "7") == 0
        assert self.run("--config", str(cfg), "simulate", "--out", str(out2), "--seed", "7") == 0
        for name in ("gnss.csv", "heading.csv", "pwm.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        capsys.readouterr()

    def test_simulate_rejects_a_dt_off_a_log_period(self, tmp_path, capsys):
        # 0.04 s divides h = 0.2 s, but the 50 Hz heading log would come out at 25 Hz.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"duration_s": 2.0, "dt": 0.04}}))
        out = tmp_path / "sim"
        assert self.run("--config", str(cfg), "simulate", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: dt 0.04 s does not divide the heading log period 0.02 s\n"
        )
        assert not out.exists()

    def test_simulate_divergence_writes_no_logs(self, tmp_path, gt_static, capsys):
        unstable = replace(gt_static, x_u=-0.3, x_uu=0.0, bias=(0.0, 0.0, 0.0))
        storage.write_ground_truth(tmp_path / "gt.json", unstable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ground_truth": json.loads((tmp_path / "gt.json").read_text()),
            "simulate": {"duration_s": 120.0,
                         "excitation": {"mean_center": 0.9, "mean_amp": 0.0, "diff_amp": 0.0}},
        }))
        out = tmp_path / "sim"
        assert self.run("--config", str(cfg), "simulate", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: continuous simulation diverged at step 6262\n"
        assert not out.exists()

    @pytest.mark.parametrize("dynamic_truth, kind_in", [
        (False, "config"), (False, "flag"), (True, "config"), (True, "flag"),
    ])
    def test_simulate_rejects_a_kind_that_contradicts_the_ground_truth(
        self, tmp_path, capsys, dynamic_truth, kind_in
    ):
        gt = oracle.default_ground_truth(dynamic=dynamic_truth)
        storage.write_ground_truth(tmp_path / "gt.json", gt)
        kind, thrust = ("static", "dynamic") if dynamic_truth else ("dynamic", "static")
        doc = {"ground_truth": json.loads((tmp_path / "gt.json").read_text()),
               "simulate": {"duration_s": 2.0}}
        flags = ["--kind", kind] if kind_in == "flag" else []
        if kind_in == "config":
            doc["kind"] = kind
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        assert self.run("--config", str(cfg), "simulate", "--out", str(out), *flags) == 2
        assert capsys.readouterr().err == (
            f"error: cfg.json: kind '{kind}' contradicts the {thrust} thrust model of "
            "'ground_truth'\n"
        )
        assert not out.exists()

    def test_ground_truth_config_errors_name_the_config(self, tmp_path, gt_static, capsys):
        gt_path = tmp_path / "gt.json"
        storage.write_ground_truth(gt_path, gt_static)
        doc = json.loads(gt_path.read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ground_truth": doc, "simulate": {"duration_s": 2.0}}))
        assert self.run("--config", str(cfg), "simulate", "--out", str(tmp_path / "ok")) == 0
        assert json.loads((tmp_path / "ok" / "ground_truth.json").read_text()) == doc

        del doc["y_v"]
        cfg.write_text(json.dumps({"ground_truth": doc}))
        out = tmp_path / "bad"
        assert self.run("--config", str(cfg), "simulate", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and "y_v" in err
        assert not (out / "_gt_input.json").exists()

    def test_report_regenerates_identically(self, tmp_path, ds_static, capsys):
        prep = tmp_path / "prepared.csv"
        storage.write_prepared_csv(prep, ds_static)
        val = tmp_path / "val"
        assert self.run("validate", "--prepared", str(prep), "--kind", "static",
                        "--seed", "1", "--out", str(val), "--sensitivity", "3") == 0
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert self.run("report", "--metrics", str(val / "metrics.json"), "--out", str(r1)) == 0
        assert self.run("report", "--metrics", str(val / "metrics.json"), "--out", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        capsys.readouterr()


def _edit_prepared_row(line: int, edit):
    """Case builder: prepared.csv with file line ``line`` (1-based) edited."""
    def build(tmp_path, ds, model, bundle):
        path = tmp_path / "prepared.csv"
        storage.write_prepared_csv(path, ds)
        lines = path.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1].split(","))
        path.write_text("\n".join(lines) + "\n")
        argv = ["identify", "--prepared", str(path), "--kind", "static", "--out", str(tmp_path)]
        return argv, f"prepared.csv:{line}"
    return build


def _edit_model(edit):
    """Case builder: validate --model on a static model file changed by ``edit``."""
    def build(tmp_path, ds, model, bundle):
        prep, path = tmp_path / "prepared.csv", tmp_path / "model.json"
        storage.write_prepared_csv(prep, ds)
        storage.write_model_file(path, model)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        argv = ["validate", "--prepared", str(prep), "--model", str(path), "--kind", "static",
                "--out", str(tmp_path / "val")]
        return argv, "model.json"
    return build


def _undecodable(role: str):
    """Case builder: a JSON file that does not parse (or a config that is a list)."""
    def build(tmp_path, ds, model, bundle):
        bad, prep = tmp_path / "bad.json", tmp_path / "prepared.csv"
        bad.write_text("[1, 2]" if role == "config-list" else "{not json")
        storage.write_prepared_csv(prep, ds)
        argv = {
            "config": ["--config", str(bad), "identify", "--prepared", str(prep),
                       "--out", str(tmp_path)],
            "config-list": ["--config", str(bad), "identify", "--prepared", str(prep),
                            "--out", str(tmp_path)],
            "model": ["validate", "--prepared", str(prep), "--model", str(bad), "--kind",
                      "static", "--out", str(tmp_path)],
            "metrics": ["report", "--metrics", str(bad)],
        }[role]
        return argv, "bad.json"
    return build


def _missing_file(tmp_path, ds, model, bundle):
    path = tmp_path / "absent.csv"
    return ["identify", "--prepared", str(path), "--out", str(tmp_path)], "absent.csv"


def _report_not_metrics(tmp_path, ds, model, bundle):
    path = tmp_path / "expected_x.json"
    storage.write_expected_x(path, "static", {"u": model.surge, "v": model.sway, "r": model.yaw})
    return ["report", "--metrics", str(path)], "expected_x.json"


def _raw_non_numeric(tmp_path, ds, model, bundle):
    storage.write_raw_logs(tmp_path / "logs", bundle)
    path = tmp_path / "logs" / "heading.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + ",abc"
    path.write_text("\n".join(lines) + "\n")
    return ["prepare", "--logs", str(tmp_path / "logs"), "--out", str(tmp_path)], "heading.csv:4"


def _set(index: int, value: str):
    return lambda cells: ",".join(cells[:index] + [value] + cells[index + 1:])


ERROR_CASES = {
    "missing-file": _missing_file,
    "config-undecodable": _undecodable("config"),
    "model-undecodable": _undecodable("model"),
    "metrics-undecodable": _undecodable("metrics"),
    "config-not-an-object": _undecodable("config-list"),
    "model-short-surge": _edit_model(lambda doc: doc["vectors"]["u"].pop()),
    "model-without-kind": _edit_model(lambda doc: doc.pop("kind")),
    "model-without-vectors": _edit_model(lambda doc: doc.pop("vectors")),
    "model-without-value": _edit_model(lambda doc: doc["vectors"]["v"][2].pop("value")),
    "model-other-h": _edit_model(lambda doc: doc.update(h=2 * doc["h"])),
    "prepared-non-numeric-u": _edit_prepared_row(6, _set(2, "abc")),
    "prepared-nan-u": _edit_prepared_row(7, _set(2, "nan")),
    "prepared-unknown-region": _edit_prepared_row(8, _set(7, "XX")),
    "prepared-short-row": _edit_prepared_row(9, lambda cells: ",".join(cells[:5])),
    "prepared-segment-float": _edit_prepared_row(11, _set(1, "3.0")),
    "prepared-segment-text": _edit_prepared_row(12, _set(1, "x")),
    "prepared-region-too-long": _edit_prepared_row(13, _set(7, "FFX")),
    "prepared-off-grid-t": _edit_prepared_row(
        10, lambda cells: ",".join([repr(float(cells[0]) + 0.05), *cells[1:]])
    ),
    "report-not-metrics": _report_not_metrics,
    "raw-non-numeric": _raw_non_numeric,
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_exits_2_naming_the_file(case, tmp_path, ds_static, small_bundle, capsys):
    model = identify(ds_static, "static")
    argv, where = ERROR_CASES[case](tmp_path, ds_static, model, small_bundle)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


def _sim(**section):
    return {"simulate": {"duration_s": 2.0, **section}}


# config, the key the error must name
BAD_CONFIGS = {
    "top-unknown": ({"sede": 3}, "'sede'"),
    "prepare-not-object": ({"prepare": 5}, "'prepare'"),
    "prepare-unknown": ({"prepare": {"gnss_windw": 2}}, "'prepare.gnss_windw'"),
    "prepare-resampler-key": ({"prepare": {"heading_degree": 8}}, "'prepare.heading_degree'"),
    "savgol-unknown": ({"prepare": {"savgol": {"window": 5}}}, "'prepare.savgol.window'"),
    "geo-not-object": ({"geo_reference": [37.4, -6.0]}, "'geo_reference'"),
    "geo-unknown": ({"geo_reference": {"lat": 37.4}}, "'geo_reference.lat'"),
    "simulate-not-object": ({"simulate": 5}, "'simulate'"),
    "simulate-unknown": (_sim(duration=2.0), "'simulate.duration'"),
    "excitation-not-object": (_sim(excitation="prbs"), "'simulate.excitation'"),
    "excitation-type-case": (_sim(excitation={"type": "PRBS"}), "'simulate.excitation.type'"),
    "excitation-type-typo": (
        _sim(excitation={"type": "prsb", "hold": 5}), "'simulate.excitation.type'"
    ),
    "excitation-hold-zero": (
        _sim(excitation={"type": "prbs", "hold": 0}), "'simulate.excitation.hold'"
    ),
    "excitation-smooth-hold": (
        _sim(excitation={"type": "smooth", "hold": 5}), "'simulate.excitation.hold'"
    ),
    "noise-not-object": (_sim(noise=0.02), "'simulate.noise'"),
    "noise-unknown": (_sim(noise={"pos": 0.02}), "'simulate.noise.pos'"),
    "noise-negative": (_sim(noise={"pos_m": -1}), "'simulate.noise.pos_m'"),
    "kind-unknown": ({"kind": "bogus"}, "'kind'"),
    "seed-string": ({"seed": "3"}, "'seed'"),
    "prepare-h-string": ({"prepare": {"h": "abc"}}, "'prepare.h'"),
    "prepare-h-bool": ({"prepare": {"h": True}}, "'prepare.h'"),
    "prepare-gap-null": ({"prepare": {"gap_factor": None}}, "'prepare.gap_factor'"),
    "savgol-window-float": (
        {"prepare": {"savgol": {"window_length": 2.5}}}, "'prepare.savgol.window_length'"
    ),
    "geo-lat-string": ({"geo_reference": {"lat0": "a"}}, "'geo_reference.lat0'"),
    "geo-offset-number": (
        {"geo_reference": {"antenna_offset": 5}}, "'geo_reference.antenna_offset'"
    ),
    "adapter-not-object": ({"column_adapter": 5}, "'column_adapter'"),
    "adapter-unknown-stream": (
        {"column_adapter": {"gnsss": {"lat": "latitude"}}}, "'column_adapter.gnsss'"
    ),
    "adapter-unknown-column": (
        {"column_adapter": {"gnss": {"latitude": "lat"}}}, "'column_adapter.gnss.latitude'"
    ),
    "duration-string": (_sim(duration_s="x"), "'simulate.duration_s'"),
    "excitation-param-string": (
        _sim(excitation={"mean_amp": "x"}), "'simulate.excitation.mean_amp'"
    ),
}


def _gt_unknown(doc):
    doc["gain"] = 1.0


def _gt_thrust_unknown(doc):
    doc["thrust"]["gain"] = 1.0


def _gt_string_value(doc):
    doc["thrust"]["a_f"] = "8"


def _gt_negative_d(doc):
    doc["d"] = -1


def _gt_alpha_without_beta(doc):
    doc["thrust"]["alpha"] = 0.9


def _gt_dead_zone_sign(doc):
    doc["thrust"].update(dead_zone_forward=-0.05, dead_zone_reverse=-0.04)


# edit of a valid ground-truth section, the key the error must name
BAD_GROUND_TRUTHS = {
    "unknown": (_gt_unknown, "'ground_truth.gain'"),
    "thrust-unknown": (_gt_thrust_unknown, "'ground_truth.thrust.gain'"),
    "string-value": (_gt_string_value, "'ground_truth.thrust.a_f'"),
    "negative-d": (_gt_negative_d, "'ground_truth.d'"),
    "alpha-without-beta": (_gt_alpha_without_beta, "'ground_truth.thrust.beta'"),
    "dead-zone-sign": (_gt_dead_zone_sign, "'ground_truth.thrust.dead_zone_forward'"),
}


@pytest.mark.parametrize("case", sorted(BAD_GROUND_TRUTHS))
def test_bad_ground_truth_exits_2_naming_the_key(case, tmp_path, gt_static, capsys):
    edit, key = BAD_GROUND_TRUTHS[case]
    gt_path = tmp_path / "gt.json"
    storage.write_ground_truth(gt_path, gt_static)
    doc = json.loads(gt_path.read_text())
    edit(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ground_truth": doc, "simulate": {"duration_s": 2.0}}))
    assert main(["--config", str(cfg), "simulate", "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
@pytest.mark.parametrize("command", ["simulate", "prepare"])
def test_bad_config_exits_2_naming_the_key(case, command, tmp_path, small_bundle, capsys):
    doc, key = BAD_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    storage.write_raw_logs(tmp_path / "logs", small_bundle)
    argv = {
        "simulate": ["simulate", "--out", str(tmp_path / "sim")],
        "prepare": ["prepare", "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "p")],
    }[command]
    assert main(["--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dt", [0, -0.01])
@pytest.mark.parametrize("command", ["simulate", "prepare", "identify", "validate"])
def test_non_positive_dt_exits_2_from_every_command(dt, command, tmp_path, ds_static, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"dt": dt}}))
    prep = tmp_path / "prepared.csv"
    storage.write_prepared_csv(prep, ds_static)
    argv = {
        "simulate": ["simulate"],
        "prepare": ["prepare", "--logs", str(tmp_path)],
        "identify": ["identify", "--prepared", str(prep)],
        "validate": ["validate", "--prepared", str(prep)],
    }[command]
    out = tmp_path / "out"
    assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cfg.json: 'simulate.dt': dt must be a positive number of seconds, "
        f"got {float(dt)!r}\n"
    )
    assert not out.exists()


# validate flags, the flag the usage error must name
BAD_VALIDATE_FLAGS = {
    "sweep-not-a-number": (["--sweep", "0.7,abc"], "--sweep"),
    "sweep-fraction-above-one": (["--sweep", "0.7,1.5"], "--sweep"),
    "sweep-leaves-no-validation-share": (["--sweep", "0.8"], "--sweep"),
    "sensitivity-one": (["--sensitivity", "1"], "--sensitivity"),
    "train-fraction-above-one": (["--train-fraction", "1.5"], "--train-fraction"),
    "train-fraction-nan": (["--train-fraction", "nan"], "--train-fraction"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALIDATE_FLAGS))
def test_bad_validate_flag_is_a_usage_error(case, tmp_path, ds_static, capsys):
    flags, flag = BAD_VALIDATE_FLAGS[case]
    prep = tmp_path / "prepared.csv"
    storage.write_prepared_csv(prep, ds_static)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--prepared", str(prep), "--out", str(tmp_path / "val"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag}:" in err


@pytest.mark.parametrize("command", ["simulate", "prepare", "identify", "validate"])
def test_each_command_builds_each_config_section_once(
    command, tmp_path, ds_static, small_bundle, monkeypatch, capsys
):
    built = []

    def counting_from_json(target, doc, key, source, **fixed):
        built.append(key)
        return from_json(target, doc, key, source, **fixed)

    monkeypatch.setattr(cli, "from_json", counting_from_json)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"duration_s": 2.0}}))
    storage.write_raw_logs(tmp_path / "logs", small_bundle)
    prep = tmp_path / "prepared.csv"
    storage.write_prepared_csv(prep, ds_static)
    argv = {
        "simulate": ["simulate", "--out", str(tmp_path / "sim")],
        "prepare": ["prepare", "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "p")],
        "identify": ["identify", "--prepared", str(prep), "--out", str(tmp_path / "id")],
        "validate": ["validate", "--prepared", str(prep), "--out", str(tmp_path / "val")],
    }[command]
    assert main(["--config", str(cfg), *argv]) == 0
    capsys.readouterr()
    assert sorted(built) == ["", "geo_reference", "prepare", "simulate.excitation",
                             "simulate.noise"]


def test_validate_model_accepts_an_inferred_h(tmp_path, ds_static, capsys):
    # Without the "# h=" record h is a median of timestamp steps, a few ulps off.
    prep, model = tmp_path / "prepared.csv", tmp_path / "model.json"
    storage.write_prepared_csv(prep, ds_static)
    prep.write_text("".join(line for line in prep.read_text().splitlines(keepends=True)
                            if not line.startswith("# h=")))
    assert storage.read_prepared_csv(prep).h != ds_static.h
    storage.write_model_file(model, identify(ds_static, "static"))
    argv = ["validate", "--prepared", str(prep), "--model", str(model), "--kind", "static",
            "--out", str(tmp_path / "val")]
    assert main(argv) == 0
    capsys.readouterr()


def test_inferred_h_skips_single_point_segments(tmp_path):
    # The first segment has one point, so h comes from the second one's steps.
    t2 = 3.0 + 0.2 * np.arange(6)
    t = np.concatenate([[0.0], t2, 10.0 + 0.2 * np.arange(5)])
    zeros = np.zeros(t.size)
    ds = PreparedDataset(0.2, np.repeat([0, 1, 2], [1, 6, 5]), t=t, u=zeros, v=zeros, r=zeros,
                         delta_mean=zeros, delta_diff=zeros, region=np.zeros(t.size, np.int8))
    prep = tmp_path / "prepared.csv"
    storage.write_prepared_csv(prep, ds)
    prep.write_text("".join(line for line in prep.read_text().splitlines(keepends=True)
                            if not line.startswith("# h=")))
    assert storage.read_prepared_csv(prep).h == float(np.median(np.diff(t2)))


def test_a_fixed_parameter_is_not_a_key():
    with pytest.raises(SchemaError, match=r"cfg\.json: 'simulate\.noise\.seed': is not a known key"):
        from_json(oracle.SensorNoise, {"seed": 3}, "simulate.noise", "cfg.json", seed=0)


def test_unknown_annotation_is_a_program_fault():
    def target(x: complex = 0j):
        return x

    with pytest.raises(TypeError, match="cannot read the annotation"):
        from_json(target, {"x": 1.0}, "section", "cfg.json")
