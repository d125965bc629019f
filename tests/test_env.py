import pytest

from bltlsynth.config import environment_from_dict
from bltlsynth.tracegen import point_rules

from conftest import env_doc_dict


def load_doc(**overrides):
    return environment_from_dict(env_doc_dict(**overrides))


class TestLoadEnvironment:
    """Environment documents as the config loader reads them."""

    def test_two_disjoint_regions(self):
        env = load_doc()
        assert len(env.regions) == 2
        assert env.unsafe == "u"
        assert env.initial_pose.x == 0.0

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            load_doc(regions=[
                {"id": "a", "label": "p", "rect": [0.0, 0.0, 2.0, 2.0]},
                {"id": "b", "label": "u", "rect": [1.0, 1.0, 3.0, 3.0]},
            ])

    def test_touching_edges_allowed(self):
        env = load_doc(regions=[
            {"id": "a", "label": "p", "rect": [1.0, 0.0, 2.0, 2.0]},
            {"id": "b", "label": "u", "rect": [2.0, 0.0, 3.0, 2.0]},
        ])
        assert len(env.regions) == 2

    def test_unknown_proposition_rejected(self):
        with pytest.raises(ValueError, match="unknown proposition"):
            load_doc(regions=[
                {"id": "a", "label": "dropoff", "rect": [1.0, 0.0, 2.0, 2.0]},
            ])

    def test_start_inside_unsafe_rejected(self):
        with pytest.raises(ValueError, match="unsafe"):
            load_doc(q_init=[3.5, 0.0, 0.0])

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            load_doc(q_init=[40.0, 0.0, 0.0])

    def test_start_inside_goal_region_allowed(self):
        env = load_doc(q_init=[1.5, 0.0, 0.0])
        assert env.initial_pose.x == 1.5

    def test_region_touching_workspace_boundary_allowed(self):
        env = load_doc(regions=[
            {"id": "edge", "label": "p", "rect": [-5.0, -5.0, -3.0, 5.0]},
        ])
        assert len(env.regions) == 1

    def test_missing_field(self):
        with pytest.raises(ValueError, match="environment is missing field 'unsafe'"):
            environment_from_dict({"propositions": ["u"]})

    def test_unsafe_not_in_propositions(self):
        with pytest.raises(ValueError, match="unsafe"):
            load_doc(unsafe="lava")

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError, match="rectangle"):
            load_doc(regions=[
                {"id": "flat", "label": "p", "rect": [1.0, 0.0, 1.0, 2.0]},
            ])


class TestSatisfyingSet:
    def test_partition_of_regions_by_label(self, demo_env):
        # the point trace's rules group every region's rectangle under its label
        seen = []
        for label, rects, _ in point_rules(demo_env):
            assert label in demo_env.propositions
            seen += [(label, rect) for rect in rects]
        assert sorted(seen, key=repr) == sorted(((r.label, r.rect) for r in demo_env.regions),
                                                key=repr)

    def test_demo_env_interiors_disjoint(self, demo_env):
        regions = demo_env.regions
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert not a.rect.interior_overlaps(b.rect)
