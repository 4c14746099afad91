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
