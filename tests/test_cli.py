import json
from pathlib import Path

import pytest

from bltlsynth.bltl import horizon_stages, to_sequential
from bltlsynth.cli import load_policy_file, main
from bltlsynth.config import builtin_config_path, load_config
from bltlsynth.mdp import history_key_string
from bltlsynth.synthesis import _TrueSystemTask

from conftest import env_doc_dict, load_demo_config_doc


@pytest.fixture
def tiny_setup(tmp_path):
    """A fast config: short mission, small episode counts, loose estimation."""
    env_doc = env_doc_dict(
        propositions=["u", "a"],
        regions=[
            {"id": "goal", "label": "a", "rect": [0.8, -1.2, 1.6, 1.2]},
            {"id": "pit", "label": "u", "rect": [3.0, 2.0, 4.0, 3.0]},
        ])
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(env_doc))
    doc = load_demo_config_doc()
    doc["environment"] = "env.json"
    doc["formula"] = "!u U[<=5] a"
    doc["algorithm"].update({
        "episodes_per_round": 40,
        "delta": 0.1,
        "confidence": 0.8,
        "stop_radius": 0.2,
        "max_rounds": 4,
    })
    doc["seed"] = 31
    cfg_path = tmp_path / "mission.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


def synth_into(cfg_path, out_dir):
    rc = main(["synth", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    return rc


class TestConfig:
    def test_builtin_config_loads(self, demo_config):
        assert len(demo_config.params.actions) == 3
        assert demo_config.algorithm.delta == 0.05
        assert demo_config.env.unsafe == "unsafe"

    def test_delta_range_error_message(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["algorithm"]["delta"] = 0.6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"delta out of \(0, ½\)"):
            load_config(bad)

    def test_unknown_formula_atom_rejected(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["formula"] = "!u U[<=5] ghost"
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="propositions"):
            load_config(bad)

    @pytest.mark.parametrize("path", [("seeds",), ("algorithm", "max_round"),
                                      ("vehicle", "wheelbase"), ("noise", "middle"),
                                      ("noise", "left", "sigma")])
    def test_unknown_key_rejected_by_name(self, tmp_path, tiny_setup, path):
        doc = json.loads(tiny_setup.read_text())
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = 3
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown config keys: " + ".".join(path)):
            load_config(bad)

    def test_section_must_be_an_object(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["vehicle"] = [0.085, 0.295]
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="vehicle must be a JSON object"):
            load_config(bad)

    def test_removed_detection_divisor_has_its_own_message(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["algorithm"]["detection_divisor"] = 256
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="algorithm.detection_divisor was removed"):
            load_config(bad)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_missing_noise_side_named(self, tmp_path, tiny_setup, side):
        doc = json.loads(tiny_setup.read_text())
        del doc["noise"][side]
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"noise is missing side '{side}'"):
            load_config(bad)

    @pytest.mark.parametrize("path, value", [
        (("seed",), 2026.9), (("seed",), True), (("workers",), 2.5),
        (("noise", "right", "n"), 3.5), (("noise", "left", "n"), False),
        (("algorithm", "episodes_per_round"), 40.5), (("algorithm", "max_rounds"), 4.2),
        (("algorithm", "batch_size"), True)])
    def test_non_integral_integer_rejected_by_name(self, tmp_path, tiny_setup, capsys,
                                                   path, value):
        doc = json.loads(tiny_setup.read_text())
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        message = f"config key {'.'.join(path)} must be an integer"
        with pytest.raises(ValueError, match=message):
            load_config(bad)
        for command in (["synth"], ["validate", "--policy", str(tmp_path / "none.json")]):
            rc = main(command + ["--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["seed"] = 31.0
        doc["workers"] = 2.0
        doc["noise"]["right"]["n"] = float(doc["noise"]["right"]["n"])
        doc["algorithm"].update(episodes_per_round=40.0, max_rounds=4.0, batch_size=1.0)
        floats = tmp_path / "floats.json"
        floats.write_text(json.dumps(doc))
        cfg = load_config(floats)
        assert cfg.content_hash() == load_config(tiny_setup).content_hash()
        assert (cfg.seed, cfg.workers, cfg.algorithm.episodes_per_round) == (31, 2, 40)

    def test_resolved_config_loads_back(self, demo_config):
        from bltlsynth.config import config_from_dict
        again = config_from_dict(demo_config.resolved_dict())
        assert again.content_hash() == demo_config.content_hash()

    def test_hash_changes_with_seed_but_not_workers(self, tiny_setup):
        base = load_config(tiny_setup)
        reseeded = load_config(tiny_setup, seed_override=77)
        reworked = load_config(tiny_setup, workers_override=4)
        assert base.content_hash() != reseeded.content_hash()
        assert base.content_hash() == reworked.content_hash()


class TestSynthCommand:
    def test_artifacts_and_determinism(self, tiny_setup, tmp_path, capsys):
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert synth_into(tiny_setup, out1) == 0
        first = capsys.readouterr().out
        assert "horizon: 2 stages" in first
        assert "round 1:" in first
        assert synth_into(tiny_setup, out2) == 0
        for name in ("policy.json", "audit.jsonl", "summary.json"):
            assert (out1 / name).exists()
        assert (out1 / "policy.json").read_bytes() == (out2 / "policy.json").read_bytes()
        assert (out1 / "audit.jsonl").read_bytes() == (out2 / "audit.jsonl").read_bytes()

    def test_bad_config_exit_code(self, tiny_setup, tmp_path, capsys):
        doc = json.loads(tiny_setup.read_text())
        doc["algorithm"]["delta"] = 0.6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    def test_summary_config_round_trip(self, tiny_setup, tmp_path):
        # the summary embeds the fully resolved config; a rerun from that
        # embedded config reproduces the artifacts byte for byte
        out1 = tmp_path / "out1"
        assert synth_into(tiny_setup, out1) == 0
        summary = json.loads((out1 / "summary.json").read_text())
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(summary["config"]))
        out2 = tmp_path / "out2"
        assert synth_into(replay_cfg, out2) == 0
        assert (out1 / "policy.json").read_bytes() == (out2 / "policy.json").read_bytes()
        assert (out1 / "audit.jsonl").read_bytes() == (out2 / "audit.jsonl").read_bytes()

    def test_builtin_demo_reports_nine_stages(self, tmp_path, capsys):
        # patch the bundled mission down to a single evaluation round so the
        # command itself stays fast; the horizon line is what matters here
        doc = load_demo_config_doc()
        env_doc = json.loads((builtin_config_path().parent / "demo_env.json").read_text())
        doc["environment"] = env_doc
        doc["algorithm"].update({"episodes_per_round": 10, "max_rounds": 2,
                                 "delta": 0.2, "confidence": 0.7, "stop_radius": 0.9})
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "horizon: 9 stages" in out


class TestValidateCommand:
    def test_report_and_bound(self, tiny_setup, tmp_path, capsys):
        out = tmp_path / "out"
        assert synth_into(tiny_setup, out) == 0
        capsys.readouterr()
        rc = main(["validate", "--policy", str(out / "policy.json"),
                   "--config", str(tiny_setup), "--out-dir", str(out)])
        printed = capsys.readouterr().out
        assert rc in (0, 4)
        assert "system estimate" in printed
        assert "PASS" in printed or "FAIL" in printed
        report = json.loads((out / "validation.json").read_text())
        assert set(report) >= {"chain_p_hat", "system_p_hat", "bound_holds"}

    def test_hash_mismatch_refused_and_overridable(self, tiny_setup, tmp_path, capsys):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads(tiny_setup.read_text())
        doc["seed"] = 999
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        rc = main(["validate", "--policy", str(out / "policy.json"),
                   "--config", str(other), "--out-dir", str(out)])
        assert rc == 2
        assert "different config" in capsys.readouterr().err
        rc = main(["validate", "--policy", str(out / "policy.json"),
                   "--config", str(other), "--out-dir", str(out), "--override-hash"])
        assert rc in (0, 4)

    def test_corrupted_policy_file(self, tiny_setup, tmp_path, capsys):
        bad = tmp_path / "policy.json"
        bad.write_text("{broken")
        rc = main(["validate", "--policy", str(bad), "--config", str(tiny_setup),
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("action", [-1, 3, "1"], ids=["negative", "too-large", "string"])
    def test_policy_action_outside_action_set_rejected(self, tiny_setup, tmp_path, capsys,
                                                       action):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads((out / "policy.json").read_text())
        assert doc["metadata"]["n_actions"] == 3
        doc["policy"]["1,2,2"] = action
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="at history '1,2,2'"):
            load_policy_file(bad)
        capsys.readouterr()
        rc = main(["validate", "--policy", str(bad), "--config", str(tiny_setup),
                   "--out-dir", str(out)])
        assert rc == 2
        assert "'1,2,2'" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [
        ["1,2"], ["3,2,2"], ["1,4,2"], ["0,1,1", "0,01,1"],
    ], ids=["unparsable", "action-out-of-range", "tile-out-of-range", "same-history"])
    def test_policy_history_key_rejected(self, tiny_setup, tmp_path, capsys, keys):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads((out / "policy.json").read_text())
        for key in keys:
            doc["policy"][key] = 0
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(doc))
        named = f"policy history {keys[-1]!r}"
        with pytest.raises(ValueError, match=named):
            load_policy_file(bad, load_config(tiny_setup).nm)
        capsys.readouterr()
        rc = main(["validate", "--policy", str(bad), "--config", str(tiny_setup),
                   "--out-dir", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_policy_file_round_trip(self, tiny_setup, tmp_path):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        written = json.loads((out / "policy.json").read_text())["policy"]
        _, policy = load_policy_file(out / "policy.json")
        assert policy.deterministic and len(policy.index) == len(written)
        assert {history_key_string(state): policy.actions[i]
                for state, i in policy.index.items()} == written

    def test_trajectory_export(self, tiny_setup, tmp_path):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        # turn left, then reach the goal only when the right wheel read its
        # middle tile, so episodes of both verdicts are exported
        doc = json.loads((out / "policy.json").read_text())
        doc["policy"] = {"": 0, **{f"0,{j_r},{j_l}": 2 if j_r == 2 else 0
                                   for j_r in (1, 2, 3) for j_l in (1, 2, 3)}}
        (out / "policy.json").write_text(json.dumps(doc))
        rc = main(["validate", "--policy", str(out / "policy.json"),
                   "--config", str(tiny_setup), "--out-dir", str(out),
                   "--export-trajectories", "16"])
        assert rc in (0, 4)
        files = sorted(out.glob("traj_*.csv"))
        assert [f.stem.rsplit("_", 1)[0] for f in files] == [f"traj_{i:04d}" for i in range(16)]
        # each file's suffix is the verdict validation decides for that episode
        cfg = load_config(tiny_setup)
        _, policy = load_policy_file(out / "policy.json", cfg.nm)
        task = _TrueSystemTask(cfg.env, to_sequential(cfg.formula, cfg.env.unsafe), cfg.params,
                               cfg.nm, policy, horizon_stages(cfg.formula, cfg.params.dt),
                               cfg.seed)
        suffixes = [f.stem.rsplit("_", 1)[1] for f in files]
        assert suffixes == ["sat" if task.run(i) else "viol" for i in range(16)]
        assert set(suffixes) == {"sat", "viol"}


class TestCheckCommand:
    def test_worked_example_witness(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\n,6.12\np,0.75\n,0.44\nt,0.61\n,1.66\nd,1.22\n")
        rc = main(["check", "--trace", str(trace), "--formula",
                   "!u U[<=6.2] (p & !u U[<=2.3] (G[<=0.2] t & !u U[<=2.3] d))"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "satisfied" in out
        assert "phase 1: start 1, hit 2 (k=1), disjunct 1" in out
        assert "phase 2: start 2, hit 4 (k=2), disjunct 1" in out
        assert "phase 3: start 4, hit 6 (k=2), disjunct 1" in out

    def test_violated_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\nu,23.4\n")
        rc = main(["check", "--trace", str(trace), "--formula", "!u U[<=5] p"])
        assert rc == 1
        assert "violated" in capsys.readouterr().out

    def test_empty_trace_file_is_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\n")
        rc = main(["check", "--trace", str(trace), "--formula", "!u U[<=5] p"])
        assert rc == 2

    def test_unsafe_inference_failure_needs_flag(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\np,1.0\n")
        rc = main(["check", "--trace", str(trace), "--formula", "G[<=0.5] p"])
        assert rc == 2
        assert "--unsafe" in capsys.readouterr().err


class TestPlotCommand:
    def write_env(self, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env_doc_dict()))
        return env_path

    def write_traj(self, path, points):
        rows = ["t,x,y,theta,d"]
        rows += [f"{i * 0.1},{x},{y},0.0,0.0" for i, (x, y) in enumerate(points)]
        Path(path).write_text("\n".join(rows) + "\n")

    def test_twenty_trajectories_twenty_polylines(self, tmp_path, capsys):
        env_path = self.write_env(tmp_path)
        files = []
        for i in range(20):
            suffix = "sat" if i % 2 == 0 else "viol"
            p = tmp_path / f"traj_{i:04d}_{suffix}.csv"
            self.write_traj(p, [(0.1 * i, 0.0), (0.1 * i + 1.0, 1.0)])
            files.append(str(p))
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--env", str(env_path), "--out", str(out)] + files)
        assert rc == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 20
        assert svg.count("<rect") >= 3  # background plus two regions

    def test_environment_only(self, tmp_path):
        env_path = self.write_env(tmp_path)
        out = tmp_path / "plot.svg"
        assert main(["plot", "--env", str(env_path), "--out", str(out)]) == 0
        assert "<polyline" not in out.read_text()

    def test_out_of_bounds_clipped_with_warning(self, tmp_path, capsys):
        env_path = self.write_env(tmp_path)
        p = tmp_path / "wild_sat.csv"
        self.write_traj(p, [(0.0, 0.0), (99.0, 0.0)])
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--env", str(env_path), "--out", str(out), str(p)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "clipped" in err
        svg = out.read_text()
        assert "<polyline" in svg
