import json

import numpy as np
import pytest

from qptori import cli, parallel
from qptori.fourier import FourierField

CONFIG_D1 = """\
[model]
name = pendulum
d = 1
alpha = 0.8
eps = 0.01

[mesh]
N = 31

[newton]
tol = 1e-10
max_iter = 12

[integrator]
tol = 1e-14

[manifold]
order = 3
branches = unstable stable
scaling = 1.0

[run]
sections = 1
threads = 1
test_tol = 1e-10
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One d=1 torus+manifold CLI run shared by the read-only checks."""
    out = tmp_path_factory.mktemp("run")
    config = out / "run.ini"
    config.write_text(CONFIG_D1)
    assert cli.main(["torus", "--config", str(config), "--out", str(out)]) == 0
    assert cli.main(["manifold", "--config", str(config), "--out", str(out)]) == 0
    return out, config


class TestConfig:
    def test_example_config_parses(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(cli.example_config)
        cfg = cli.RunConfig.from_file(str(path))
        assert cfg.model == "pendulum"
        assert cfg.mesh == (31, 31)
        assert cfg.newton_tol == 1e-10
        assert cfg.branches == ("unstable", "stable")
        assert cfg.scaling == "auto"

    def test_missing_config_exit_code(self, tmp_path):
        rc = cli.main(["torus", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)])
        assert rc == 5  # unreadable artifact / config


class TestTorusCommand:
    def test_artifacts_written(self, run_dir):
        out, _ = run_dir
        for name in ("torus.phi.bin", "torus.C.bin", "torus.json", "torus.log", "torus_report.json"):
            assert (out / name).exists()

    def test_report_contents(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "torus_report.json").read_text())
        assert report["command"] == "torus"
        assert report["wall_time"] > 0
        assert "map_eval_fraction" in report["profile"]
        assert all(t["passed"] for t in report["tests"])
        hist = report["solution"]["history"]
        assert hist[-1]["invariance"] <= 1e-10
        eigs = report["solution"]["eigenvalues"]
        assert eigs[-1] == pytest.approx(275.85, rel=1e-3)

    def test_map_eval_fraction_is_a_fraction(self, run_dir):
        # the map evaluations of Newton and of the tests, over the wall time of both
        out, _ = run_dir
        report = json.loads((out / "torus_report.json").read_text())
        assert 0.0 < report["profile"]["map_eval_fraction"] <= 1.0


class TestResume:
    def _resume(self, run_dir, tmp_path, config_text):
        out, _ = run_dir
        config = tmp_path / "resume.ini"
        config.write_text(config_text)
        argv = ["torus", "--config", str(config), "--out", str(tmp_path)]
        return cli.main(argv + ["--resume", str(out / "torus")])

    def test_other_section_count_refused(self, run_dir, tmp_path, capsys):
        # an r=1 artifact (n=2) cannot seed the two-section lift (n=4)
        config = CONFIG_D1.replace("sections = 1", "sections = 2")
        assert self._resume(run_dir, tmp_path, config) == 5
        assert "does not match the configured map" in capsys.readouterr().err

    def test_other_frequencies_refused(self, run_dir, tmp_path):
        # same state size, but another rotation number
        config = CONFIG_D1.replace("eps = 0.01", "eps = 0.01\nomega = 1.0 1.7")
        assert self._resume(run_dir, tmp_path, config) == 5

    def test_other_mesh_refused(self, run_dir, tmp_path, capsys):
        # an N=31 artifact cannot stand for an N=15 run: nothing is solved or saved
        config = CONFIG_D1.replace("N = 31", "N = 15")
        assert self._resume(run_dir, tmp_path, config) == 5
        assert "does not match the configured mesh" in capsys.readouterr().err
        assert not (tmp_path / "torus_report.json").exists()
        assert not (tmp_path / "torus.phi.bin").exists()


class TestManifoldCommand:
    def test_artifacts_written(self, run_dir):
        out, _ = run_dir
        for branch in ("unstable", "stable"):
            assert (out / f"manifold_{branch}.json").exists()
            for k in range(4):
                assert (out / f"manifold_{branch}.a{k}.bin").exists()
            assert (out / f"manifold_{branch}_slice.csv").exists()

    def test_report_contents(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "manifold_report.json").read_text())
        for branch in ("unstable", "stable"):
            entry = report["branches"][branch]
            assert entry["orders_pass"]
            assert max(entry["order_errors"]) <= 1e-10
            assert all(t["passed"] for t in entry["tests"])

    def test_other_mesh_refused(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        config = tmp_path / "other.ini"
        config.write_text(CONFIG_D1.replace("N = 31", "N = 15"))
        argv = ["manifold", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv + ["--resume", str(out / "torus")]) == 5
        assert "does not match the configured mesh" in capsys.readouterr().err


class TestVerifyCommand:
    def test_fresh_artifacts_pass(self, run_dir):
        out, config = run_dir
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(out), str(out / "torus")]
        )
        assert rc == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["artifacts"][0]["kind"] == "torus"

    def test_corrupted_artifact_fails(self, run_dir, tmp_path):
        out, config = run_dir
        # copy the artifact, then bump one Fourier mode of phi by 1e-6
        import shutil

        for suffix in (".phi.bin", ".C.bin", ".json"):
            shutil.copy(out / f"torus{suffix}", tmp_path / f"torus{suffix}")
        phi = FourierField.load(tmp_path / "torus.phi.bin")
        coeffs = phi.coeffs.copy()
        coeffs[2, 0] += 1e-6 * phi.mesh.M
        FourierField.from_coeffs(phi.mesh, coeffs).save(tmp_path / "torus.phi.bin")
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(tmp_path), str(tmp_path / "torus")]
        )
        assert rc == 1

    def test_unknown_artifact_prefix(self, run_dir, tmp_path):
        out, config = run_dir
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(tmp_path), str(tmp_path / "ghost")]
        )
        assert rc == 5


class TestSliceCommand:
    def test_torus_slice_rows(self, run_dir, tmp_path):
        out, _ = run_dir
        dest = tmp_path / "slice.csv"
        rc = cli.main(["slice", str(out / "torus"), "--output", str(dest)])
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 1 + 31  # header plus one row per mesh point

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:56],  # header intact, coefficients gone
            lambda raw: raw[:20],  # cut inside the header
            lambda raw: b"NOTQPTF\x00" + raw[8:],  # bad magic
        ],
        ids=["truncated-coefficients", "truncated-header", "bad-magic"],
    )
    def test_corrupt_torus_artifact(self, run_dir, tmp_path, capsys, damage):
        out, _ = run_dir
        raw = (out / "torus.phi.bin").read_bytes()
        (tmp_path / "torus.phi.bin").write_bytes(damage(raw))
        rc = cli.main(["slice", str(tmp_path / "torus"), "--output", str(tmp_path / "s.csv")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("error: cannot read torus artifact")

    def test_manifold_slice(self, run_dir, tmp_path):
        out, _ = run_dir
        dest = tmp_path / "mslice.csv"
        rc = cli.main(["slice", str(out / "manifold_unstable"), "--output", str(dest)])
        assert rc == 0
        assert dest.read_text().startswith("theta1,sigma,w0,w1")


class TestDeterminism:
    def test_workers_do_not_change_results(self, run_dir, tmp_path):
        # same torus run with a 2-process pool: coefficients must be identical
        out, config = run_dir
        out2 = tmp_path / "run2"
        out2.mkdir()
        try:
            rc = cli.main(
                ["torus", "--config", str(config), "--out", str(out2), "--threads", "2"]
            )
        finally:
            parallel.set_workers(1)
        assert rc == 0
        a = FourierField.load(out / "torus.phi.bin")
        b = FourierField.load(out2 / "torus.phi.bin")
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13
