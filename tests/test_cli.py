import gzip
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import bltlsynth
from bltlsynth.bltl import horizon_stages, to_sequential
from bltlsynth.cli import _history_key_strings, _policy_json, load_policy_file, main
from bltlsynth.config import builtin_config_path, load_config
from bltlsynth.mdp import EMPTY_HISTORY, PathSampler
from bltlsynth.synthesis import _TrueSystemTask

from conftest import env_doc_dict, load_demo_config_doc
from oracles import history_key_string

# Content hashes of the bundled demo config and of ``tiny_setup`` with
# max_rounds 50 and batch_size 1, the algorithm defaults.
DEMO_HASH = "3da2f2e19e10aaff45e25249fb7a56d9ccec46dc460617ae5b6e2a6644aa3f05"
TINY_DEFAULTS_HASH = "cd0dccc979171c01fcb206804be165acb8ee5aa4e93d7fb1ac5111130dd59f90"

REFERENCE_POLICY = (Path(__file__).resolve().parents[1] / "bench" / "reference"
                    / "policy.json.gz")

# A policy-metadata value that the bad-metadata test deletes instead of setting.
MISSING_KEY = object()

# sha256 of the artifacts of the seed-2026 demo with 200 episodes per round
# (``short_demo``): its synthesis's policy and audit log, and the validation
# report of that policy.
SHORT_DEMO_DIGESTS = {
    "policy.json": "3100bb56cfa48cb0391ac6817ad9b8c31f3b29911402b1d01af852af8339c298",
    "audit.jsonl": "c6d0861120451aba665ded5e341eb2387b4e2b85c4aecc6a60d61b5d855261a7",
    "validation.json": "41e908f8d7deb8fb3cb0b65f6ec5472f8a3ad34bee2fa78affa7872669b848f2",
}

# sha256 of the short demo's audit log without its table sizes (``q_pairs``,
# ``policy_states``): the estimates, sample counts and verdict counts of every
# round, which do not depend on which histories the tables keep.
SHORT_DEMO_ESTIMATES_DIGEST = "96307313efcfcda610d1177b9071535d4eccb365eb43250481ce02ee476cd46b"


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


@pytest.fixture(scope="module")
def short_demo(tmp_path_factory):
    """The bundled demo, environment inlined, at 200 episodes per round."""
    doc = load_demo_config_doc()
    doc["environment"] = json.loads(
        (builtin_config_path().parent / doc["environment"]).read_text())
    doc["algorithm"].update({"episodes_per_round": 200, "max_rounds": 10})
    path = tmp_path_factory.mktemp("short") / "short.json"
    path.write_text(json.dumps(doc))
    return path


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
                                      ("noise", "left", "sigma"), ("environment", "extra"),
                                      ("environment", "regions", 0, "colour")])
    def test_unknown_key_rejected_by_name(self, tmp_path, tiny_setup, capsys, path):
        doc = json.loads(tiny_setup.read_text())
        doc["environment"] = json.loads((tiny_setup.parent / doc["environment"]).read_text())
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = 3
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        message = "unknown config keys: " + re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(bad)
        assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("environment",), 5, "config key environment must be a path or a JSON object, not 5"),
        (("environment",), [1],
         "config key environment must be a path or a JSON object, not [1]"),
        (("environment", "regions"), {},
         "config key environment.regions must be a list, not {}")])
    def test_environment_of_another_type_rejected_by_name(self, tmp_path, tiny_setup, capsys,
                                                          path, value, message):
        """An environment that is not a path or an object, or regions that
        are not a list, is an error naming the key, not a TypeError from
        ``Path`` or an environment without regions."""
        doc = json.loads(tiny_setup.read_text())
        doc["environment"] = json.loads((tiny_setup.parent / doc["environment"]).read_text())
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(bad)
        assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

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
        with pytest.raises(ValueError, match=f"noise is missing field '{side}'"):
            load_config(bad)

    @pytest.mark.parametrize("path, value", [
        (("seed",), 2026.9), (("seed",), True), (("workers",), 2.5),
        (("noise", "right", "n"), 3.5), (("noise", "left", "n"), False),
        (("algorithm", "episodes_per_round"), 40.5), (("algorithm", "max_rounds"), 4.2),
        (("algorithm", "batch_size"), True), (("workers",), "2"),
        (("algorithm", "max_rounds"), "4")])
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

    @pytest.mark.parametrize("path, key", [
        (("algorithm", "prior_alpha"), "algorithm.prior_alpha"),
        (("vehicle", "dt"), "vehicle.dt"),
        (("vehicle", "actions", 1, 0), "vehicle.actions[1][0]"),
        (("noise", "left", "eps_min"), "noise.left.eps_min"),
        (("noise", "right", "probs", 2), "noise.right.probs[2]"),
        (("environment", "q_init", 2), "environment.q_init[2]"),
        (("environment", "bounds", 2), "environment.bounds[2]"),
        (("environment", "regions", 0, "rect", 0), "environment.regions[0].rect[0]")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.6"])
    def test_non_finite_real_rejected_by_name(self, tmp_path, tiny_setup, capsys,
                                              path, key, value):
        doc = json.loads(tiny_setup.read_text())
        if path[0] == "environment":  # inline the environment file to edit it
            doc["environment"] = json.loads((tiny_setup.parent / doc["environment"]).read_text())
        section = doc
        for step in path[:-1]:
            section = section[step]
        section[path[-1]] = value
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as JSON reads them
        message = f"config key {key} must be a finite number"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(bad)
        for command in (["synth"], ["validate", "--policy", str(tmp_path / "none.json"),
                                    "--override-hash"]):
            rc = main(command + ["--config", str(bad), "--out-dir", str(tmp_path / "o")])
            assert rc == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, key", [
        (("formula",), None, "formula"),
        (("formula",), ["!u U[<=5] a"], "formula"),
        (("environment", "unsafe"), None, "environment.unsafe"),
        (("environment", "propositions"), "pickup", "environment.propositions"),
        (("environment", "propositions"), ["u", "a", 7], "environment.propositions[2]"),
        (("environment", "regions", 0, "id"), 3, "environment.regions[0].id"),
        (("environment", "regions", 1, "label"), None, "environment.regions[1].label")])
    def test_non_string_text_rejected_by_name(self, tmp_path, tiny_setup, capsys,
                                              path, value, key):
        """Text fields are JSON strings: ``str`` would read null as "None",
        a proposition string as a set of letters and 7 as "7"."""
        doc = json.loads(tiny_setup.read_text())
        doc["environment"] = json.loads((tiny_setup.parent / doc["environment"]).read_text())
        section = doc
        for step in path[:-1]:
            section = section[step]
        section[path[-1]] = value
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        message = f"config key {key} must be a"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(bad)
        rc = main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_finite_formula_bound_rejected(self, tmp_path, tiny_setup, capsys):
        """``synth`` on a config formula and ``check`` on a command-line one
        reject a bound that reads as infinity, which would end in an
        ``OverflowError`` where the horizon is counted in stages."""
        doc = json.loads(tiny_setup.read_text())
        doc["formula"] = "!u U[<=1e400] a"
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\n,1.0\na,1.0\n")
        for argv in (["synth", "--config", str(bad), "--out-dir", str(tmp_path / "o")],
                     ["check", "--trace", str(trace), "--formula", doc["formula"]]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "bound must be finite (at position 3)" in captured.err
            assert captured.out == ""

    def test_negative_seed_rejected_by_name(self, tmp_path, tiny_setup, capsys):
        doc = json.loads(tiny_setup.read_text())
        doc["seed"] = -5
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            load_config(bad)
        policy = ["--policy", str(tmp_path / "none.json")]
        for argv in (["synth", "--config", str(bad)], ["validate", "--config", str(bad), *policy],
                     ["synth", "--config", str(tiny_setup), "--seed", "-5"],
                     ["validate", "--config", str(tiny_setup), "--seed", "-5", *policy]):
            rc = main(argv + ["--out-dir", str(tmp_path / "o")])
            captured = capsys.readouterr()
            assert rc == 2
            assert "seed must be non-negative" in captured.err
            assert "horizon" not in captured.out

    def test_action_must_be_a_pair(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["vehicle"]["actions"][1].append(0.0)
        bad = tmp_path / "mission.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                "config key vehicle.actions[1] must be a list of 2 entries")):
            load_config(bad)

    def test_integral_ints_for_reals_keep_the_hash(self, tmp_path, tiny_setup):
        doc = json.loads(tiny_setup.read_text())
        doc["environment"] = env = json.loads(
            (tiny_setup.parent / doc["environment"]).read_text())
        doc["algorithm"].update(prior_alpha=1, prior_beta=1)
        doc["noise"]["right"]["probs"] = [0, 1, 0]
        env.update(q_init=[0, 0, 0], bounds=[-5, -5, 5, 5])
        env["regions"][1]["rect"] = [3, 2, 4, 3]
        ints = tmp_path / "ints.json"
        ints.write_text(json.dumps(doc))
        doc["noise"]["right"]["probs"] = [0.0, 1.0, 0.0]
        env.update(q_init=[0.0, 0.0, 0.0], bounds=[-5.0, -5.0, 5.0, 5.0])
        env["regions"][1]["rect"] = [3.0, 2.0, 4.0, 3.0]
        floats = tmp_path / "floats.json"
        floats.write_text(json.dumps(doc))
        cfg = load_config(ints)
        assert cfg.algorithm.prior_alpha == 1.0 and type(cfg.algorithm.prior_alpha) is float
        assert cfg.content_hash() == load_config(floats).content_hash()
        assert cfg.content_hash() != load_config(tiny_setup).content_hash()

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

    def test_demo_hash_is_pinned(self, demo_config):
        assert demo_config.content_hash() == DEMO_HASH

    @pytest.mark.parametrize("defaults", ["omitted", "written"])
    def test_tiny_hash_is_pinned(self, tmp_path, tiny_setup, defaults):
        doc = json.loads(tiny_setup.read_text())
        del doc["algorithm"]["max_rounds"], doc["algorithm"]["batch_size"]
        if defaults == "written":
            doc["algorithm"].update(max_rounds=50, batch_size=1)
        path = tmp_path / "mission.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).content_hash() == TINY_DEFAULTS_HASH

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

    def test_policy_file_bytes_are_the_indented_json(self, tiny_setup, tmp_path):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        text = (out / "policy.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

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
        assert suffixes == ["sat" if task.run(i)[1] else "viol" for i in range(16)]
        assert set(suffixes) == {"sat", "viol"}


    @pytest.mark.parametrize("key,value", [
        ("p_hat", float("nan")), ("p_hat", "0.5"), ("p_hat", True), ("p_hat", 1.5),
        ("p_hat", -0.1), ("p_hat", float("inf")), ("p_hat", None),
        ("n_actions", True), ("n_actions", 0), ("n_actions", "3"), ("n_actions", 3.0),
        ("config_hash", None), ("config_hash", 7), ("config_hash", ["ab"]),
        *(pytest.param(key, MISSING_KEY, id=f"{key}-missing")
          for key in ("n_actions", "p_hat", "config_hash")),
    ])
    def test_bad_policy_metadata_rejected_by_name(self, tiny_setup, tmp_path, capsys,
                                                  monkeypatch, key, value):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads((out / "policy.json").read_text())
        if value is MISSING_KEY:
            del doc["metadata"][key]
        else:
            doc["metadata"][key] = value
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"policy metadata {key} "):
            load_policy_file(bad)

        def no_episodes(*args, **kwargs):
            raise AssertionError("validation ran episodes")

        monkeypatch.setattr("bltlsynth.cli.validate_true_system", no_episodes)
        capsys.readouterr()
        rc = main(["validate", "--policy", str(bad), "--config", str(tiny_setup),
                   "--out-dir", str(out)])
        assert rc == 2
        assert f"policy metadata {key} " in capsys.readouterr().err
        assert not (out / "validation.json").exists()

    @pytest.mark.parametrize("shape", ["list", "metadata", "policy", "no-metadata"])
    def test_policy_file_shape_rejected(self, tiny_setup, tmp_path, capsys, shape):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads((out / "policy.json").read_text())
        if shape == "list":
            doc = [doc]
        elif shape == "no-metadata":
            del doc["metadata"]
        else:
            doc[shape] = list(doc[shape])
        bad = tmp_path / "policy.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["validate", "--policy", str(bad), "--config", str(tiny_setup),
                   "--out-dir", str(out)])
        assert rc == 2
        assert "policy file" in capsys.readouterr().err

    def test_integral_p_hat_accepted(self, tiny_setup, tmp_path):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        doc = json.loads((out / "policy.json").read_text())
        doc["metadata"]["p_hat"] = 1
        (out / "policy.json").write_text(json.dumps(doc))
        meta, _ = load_policy_file(out / "policy.json")
        assert meta["p_hat"] == 1

    def test_negative_trajectory_export_rejected(self, tiny_setup, tmp_path, capsys):
        out = tmp_path / "out"
        synth_into(tiny_setup, out)
        capsys.readouterr()
        rc = main(["validate", "--policy", str(out / "policy.json"),
                   "--config", str(tiny_setup), "--out-dir", str(out),
                   "--export-trajectories", "-3"])
        assert rc == 2
        assert "--export-trajectories" in capsys.readouterr().err
        assert not (out / "validation.json").exists()


class TestArtifactDigests:
    """The bytes of a short demo run's artifacts are pinned: a change that
    moves them must say why."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_demo_synth_and_validate(self, short_demo, tmp_path, workers):
        out = tmp_path / "out"
        assert main(["synth", "--config", str(short_demo), "--out-dir", str(out),
                     "--workers", str(workers)]) == 0
        assert main(["validate", "--policy", str(out / "policy.json"),
                     "--config", str(short_demo), "--out-dir", str(out),
                     "--workers", str(workers)]) == 0
        assert {name: sha256(out / name) for name in SHORT_DEMO_DIGESTS} == SHORT_DEMO_DIGESTS

    def test_short_demo_estimates(self, short_demo, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--config", str(short_demo), "--out-dir", str(out)]) == 0
        lines = []
        for line in (out / "audit.jsonl").read_text().splitlines():
            doc = json.loads(line)
            del doc["q_pairs"], doc["policy_states"]
            lines.append(json.dumps(doc, sort_keys=True))
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == SHORT_DEMO_ESTIMATES_DIGEST


class TestTrajectoryExport:
    """The trajectory CSVs that ``validate --export-trajectories`` writes
    from the closed loop's float stages are pinned: the sha256 of each of the
    first five seed-2026 validation episodes of the ``short_demo`` policy."""

    DIGESTS = {
        "traj_0000_viol.csv": "c5fad574a84b2435f7bd27854d07a5db561807577288f360c72c6af79e023b88",
        "traj_0001_viol.csv": "c82671ed7dd596e8b720c9ee0f8683edeb8a48252af8413bfb1044c37a5ac7e5",
        "traj_0002_viol.csv": "a0d1f6442fb373a48fb81f1eb6222f27897e99e41651be729adb34d415d16097",
        "traj_0003_viol.csv": "d1ca97b196ba220e055966c9ac120d3bc7d89c1d29d1ee29b0438eaccac1c2a0",
        "traj_0004_viol.csv": "9ba5aacee0863aab7f9438fc72471a9e5ca61c900b3dd8c32b89bb1ce0a66c82",
    }

    def test_short_demo_export_digests(self, short_demo, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--config", str(short_demo), "--out-dir", str(out)]) == 0
        assert main(["validate", "--policy", str(out / "policy.json"),
                     "--config", str(short_demo), "--out-dir", str(out),
                     "--export-trajectories", "5"]) == 0
        assert {path.name: sha256(path) for path in out.glob("traj_*.csv")} == self.DIGESTS


@pytest.mark.slow
@pytest.mark.parametrize("batch_size", [1, 32])
def test_benchmark_synth_configs_converge_at_every_timed_seed(tmp_path, batch_size):
    """The demo mission at the benchmark's synthesis settings (1,000 episodes
    per round, at most 10 rounds; batch 1 as in ``demo-synth``, 32 as in
    ``parallel-synth``) converges at seeds 2026 to 2159.  A timed benchmark
    run goes on from seed 2026 for as long as its time lasts, so a faster
    change reaches later seeds, and an unconverged command (exit 3) fails the
    run.  Bytes do not depend on the worker count, so one worker runs them."""
    doc = load_demo_config_doc()
    doc["environment"] = json.loads(
        (builtin_config_path().parent / doc["environment"]).read_text())
    doc["algorithm"].update({"episodes_per_round": 1000, "max_rounds": 10,
                             "batch_size": batch_size})
    doc["workers"] = 1
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(doc))
    outcomes = {}
    for seed in range(2026, 2160):
        out = tmp_path / str(seed)
        rc = main(["synth", "--config", str(config), "--out-dir", str(out), "--seed", str(seed)])
        outcomes[seed] = (rc, json.loads((out / "summary.json").read_text())["converged"])
    assert {seed: o for seed, o in outcomes.items() if o != (0, True)} == {}


class TestCheckCommand:
    # The demo mission: pickup, then test1 or test2, then dropoff.
    DEMO_FORMULA = load_demo_config_doc()["formula"]

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

    @pytest.mark.parametrize("gap, verdict", [("20", "violated"), ("20.0", "violated"),
                                              ("0", "satisfied")])
    def test_demo_trace_with_a_gap(self, tmp_path, capsys, gap, verdict):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"label,duration\npickup,1\n,{gap}\ntest1,1.5\n,0\ndropoff,1\n")
        rc = main(["check", "--trace", str(trace), "--formula", self.DEMO_FORMULA])
        assert capsys.readouterr().out.splitlines()[0] == verdict
        assert rc == (0 if verdict == "satisfied" else 1)

    @pytest.mark.parametrize("gap", ["nan", "NaN", "inf", "-inf", "Infinity", "-20", "-1e-300"])
    def test_non_finite_or_negative_duration_rejected(self, tmp_path, capsys, gap):
        """A NaN gap passes every time bound, so the demo trace whose 20 s
        gap is written as ``nan`` would print ``satisfied``."""
        trace = tmp_path / "trace.csv"
        trace.write_text(f"label,duration\npickup,1\n,{gap}\ntest1,1.5\n,0\ndropoff,1\n")
        rc = main(["check", "--trace", str(trace), "--formula", self.DEMO_FORMULA])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"trace CSV line 3: duration must be finite and non-negative, got {gap!r}" \
            in captured.err

    def test_repeated_label_rejected(self, tmp_path, capsys):
        """A label repeated on the next row splits one stay in two, and the
        dwell reads as two short ones: ``a,1.0`` then ``a,1.5`` would print
        ``violated`` where the same stay as ``a,2.5`` is ``satisfied``."""
        trace = tmp_path / "trace.csv"
        formula = "!u U[<=5] G[<=2] a"
        trace.write_text("label,duration\n,0.5\na,2.5\n")
        assert main(["check", "--trace", str(trace), "--formula", formula]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "satisfied"
        trace.write_text("label,duration\n,0.5\na,1.0\na,1.5\n")
        rc = main(["check", "--trace", str(trace), "--formula", formula])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "trace CSV line 4: label 'a' repeats the previous row's" in captured.err

    def test_non_numeric_duration_names_its_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\n,0.5\na,x\n")
        rc = main(["check", "--trace", str(trace), "--formula", "!u U[<=5] G[<=2] a"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "trace CSV line 3: duration must be finite and non-negative, got 'x'" \
            in captured.err

    def test_short_row_names_its_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("label,duration\n,0.5\na\n")
        assert main(["check", "--trace", str(trace), "--formula", "!u U[<=5] G[<=2] a"]) == 2
        assert "trace CSV line 3: a row must be label,duration, got 'a'" \
            in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("column", range(5))
    def test_non_finite_cell_rejected(self, tmp_path, capsys, column, value):
        env_path = self.write_env(tmp_path)
        cells = ["0.1", "0.5", "0.2", "0", "0"]
        cells[column] = value
        p = tmp_path / "bad_sat.csv"
        p.write_text("t,x,y,theta,d\n0.0,0.5,0.2,0,0\n" + ",".join(cells) + "\n")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--env", str(env_path), "--out", str(out), str(p)]) == 2
        assert "trajectory CSV line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_region_labels_are_escaped(self, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env_doc_dict(
            propositions=["u", "a<b&c"],
            regions=[{"id": "goal", "label": "a<b&c", "rect": [1.0, -1.0, 2.0, 1.0]},
                     {"id": "pit", "label": "u", "rect": [3.0, -1.0, 4.0, 1.0]}])))
        out = tmp_path / "plot.svg"
        assert main(["plot", "--env", str(env_path), "--out", str(out)]) == 0
        svg = ElementTree.parse(out).getroot()
        assert [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")] == ["a<b&c", "u"]

    def test_short_row_rejected(self, tmp_path, capsys):
        env_path = self.write_env(tmp_path)
        p = tmp_path / "bad_sat.csv"
        p.write_text("t,x,y,theta,d\n0.0,0.5,0.2,0,0\n0.1,0.5,0.2\n")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--env", str(env_path), "--out", str(out), str(p)]) == 2
        assert "trajectory CSV line 3: a row must be five finite numbers t,x,y,theta,d, " \
            "got '0.1,0.5,0.2'" in capsys.readouterr().err
        assert not out.exists()


class TestPolicyWriter:
    """The policy file writer gives the bytes of the indented ``json.dumps``."""

    @staticmethod
    def indented(doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_demo_policy(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_bytes(gzip.decompress(REFERENCE_POLICY.read_bytes()))
        doc = json.loads(path.read_text())
        assert len(doc["policy"]) > 20000
        assert _policy_json(doc) == self.indented(doc)
        _, policy = load_policy_file(path)
        assert _history_key_strings(policy.index) == list(doc["policy"])

    def test_random_policies(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            histories = set()
            for _ in range(int(rng.integers(0, 60))):
                length = int(rng.integers(0, 6))
                history = tuple((int(rng.integers(0, 3)), int(rng.integers(1, 4)),
                                 int(rng.integers(1, 12))) for _ in range(length))
                # most histories come with their prefixes, some without
                cut = 0 if rng.random() < 0.8 else length
                histories.update(history[:k] for k in range(cut, length + 1))
            histories = sorted(histories, key=lambda h: (rng.random(), len(h)))
            rows = rng.permutation(len(histories)).tolist()
            index = dict(zip(histories, rows))
            texts = _history_key_strings(index)
            assert all(texts[row] == history_key_string(h) for h, row in index.items())
            doc = {"metadata": {"p_hat": float(rng.random()), "seed": trial,
                                "converged": bool(trial % 2), "name": "ä\"x"},
                   "policy": {t: int(rng.integers(0, 3)) for t in texts}}
            assert _policy_json(doc) == self.indented(doc)

    @staticmethod
    def reloaded(actions, tmp_path):
        """The history-to-action map of the policy file written from
        ``actions``, a history-to-action map, as ``load_policy_file`` reads it
        back."""
        texts = _history_key_strings({history: row for row, history in enumerate(actions)})
        doc = {"metadata": {"n_actions": 3, "p_hat": 0.5, "config_hash": ""},
               "policy": dict(zip(texts, actions.values()))}
        path = tmp_path / "policy.json"
        path.write_text(_policy_json(doc))
        _, policy = load_policy_file(path)
        return {history: policy.actions[row] for history, row in policy.index.items()}

    def test_history_keys_round_trip(self, tmp_path):
        actions = {((0, 1, 2), (2, 3, 1), (1, 2, 2)): 2, ((0, 1, 2),): 0,
                   ((2, 3, 1), (1, 2, 2)): 1}
        assert self.reloaded(actions, tmp_path) == actions

    def test_empty_history_key_round_trip(self, tmp_path):
        assert _history_key_strings({EMPTY_HISTORY: 0}) == [""]
        assert self.reloaded({EMPTY_HISTORY: 1}, tmp_path) == {EMPTY_HISTORY: 1}


def test_worker_error_keeps_the_synth_exit_code(tiny_setup, tmp_path, monkeypatch, capsys):
    """A ValueError raised in a worker's episode ends `synth` with exit 2."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    decide = PathSampler.decide

    def failing(sampler, next_step):
        if next_step(())[1] == 3:
            raise ValueError("no verdict for this history")
        return decide(sampler, next_step)

    monkeypatch.setattr(PathSampler, "decide", failing)
    rc = main(["synth", "--config", str(tiny_setup), "--out-dir", str(tmp_path / "out"),
               "--workers", "2"])
    assert rc == 2
    assert "no verdict for this history" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


class TestWithoutScipy:
    """scipy is a test dependency only: the commands run without it."""

    @staticmethod
    def python(code, *args):
        src = str(Path(bltlsynth.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_cli_import_leaves_scipy_out(self):
        proc = self.python("import sys, bltlsynth.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_synth_and_validate_with_scipy_blocked(self, tiny_setup, tmp_path):
        code = ("import sys\n"
                "sys.modules['scipy'] = None  # any import of scipy now fails\n"
                "from bltlsynth.cli import main\n"
                "config, out = sys.argv[1:]\n"
                "assert main(['synth', '--config', config, '--out-dir', out]) == 0\n"
                "sys.exit(main(['validate', '--policy', out + '/policy.json',\n"
                "               '--config', config, '--out-dir', out]))\n")
        proc = self.python(code, tiny_setup, tmp_path / "out")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "system estimate" in proc.stdout
        assert (tmp_path / "out" / "validation.json").is_file()
