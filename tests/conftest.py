"""Fixtures shared by the test modules."""

import pytest

from subdyn import subdynamics


@pytest.fixture
def built_blocks(monkeypatch):
    """count(d) sets one dyad index j per dyad-resolvent block at dimension d
    and returns the list that records the j of every block built from then on."""

    def count(dim):
        monkeypatch.setattr(subdynamics, "_BLOCK_ENTRIES", dim ** 3)
        built = []
        blocks = subdynamics._dyad_resolvent_blocks

        def counted(*args):
            for js, res in blocks(*args):
                built.append(js.start)
                yield js, res

        monkeypatch.setattr(subdynamics, "_dyad_resolvent_blocks", counted)
        return built

    return count
