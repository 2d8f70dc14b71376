"""The package's public surface."""

import ropekit


def test_every_public_name_resolves():
    missing = [name for name in ropekit.__all__ if not hasattr(ropekit, name)]
    assert missing == []
    assert len(set(ropekit.__all__)) == len(ropekit.__all__)
