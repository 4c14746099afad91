"""Every name the package exports stays importable."""

from __future__ import annotations

import torelli


def test_every_exported_name_resolves():
    missing = [name for name in torelli.__all__ if not hasattr(torelli, name)]
    assert missing == []
    assert len(set(torelli.__all__)) == len(torelli.__all__)
    assert "canonical_split" in torelli.__all__
    assert "bounding_pair_trivial_on_homology" in torelli.__all__
    assert not hasattr(torelli, "bounding_pair_action_matrix")


def test_one_degree_one_type():
    """Degree-1 elements are Multivectors; the dense Vector class and its wrappers are gone."""
    for name in ("render_vector", "parse_vector"):
        assert name not in torelli.__all__ and not hasattr(torelli, name)
    assert not hasattr(torelli.Transvection, "apply_vector")
    v = torelli.Vector(torelli.SymplecticSpace(2), [1, 0, 0, "1/2"])
    assert type(v) is torelli.Multivector and v.degree == 1
