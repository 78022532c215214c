"""Work the width search leaves undone.

Separator candidates are bare variable masks; a candidate's atoms are
unranked from its index only for the vertices of the tree that is built.
A state answers its memo hits itself and yields only misses to the driver.
"""

import pytest

from htd import X3CInstance, decompose, x3c_to_query
from htd import detect
from htd.components import _Index


@pytest.fixture
def unranked(monkeypatch):
    """The candidate indices unranked while the test runs."""
    calls = []
    candidate_atoms = _Index.candidate_atoms

    def counted(self, p):
        calls.append(p)
        return candidate_atoms(self, p)

    monkeypatch.setattr(_Index, "candidate_atoms", counted)
    return calls


@pytest.fixture
def searches(monkeypatch):
    """Every _Search the library builds while the test runs; each asserts
    that no key it yields is in its memo already."""
    made = []

    class Checked(detect._Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def _state(self, comp, border):
            state = super()._state(comp, border)
            w = None
            while True:
                try:
                    key = state.send(w)
                except StopIteration as done:
                    return done.value
                assert key not in self.memo, key
                w = yield key

    monkeypatch.setattr(detect, "_Search", Checked)
    return made


def test_unranking_only_for_the_tree(unranked, searches):
    inst = X3CInstance(
        ("g1", "g2", "g3", "g4", "g5", "g6"),
        (frozenset({"g1", "g2", "g3"}), frozenset({"g1", "g4", "g5"})),
    )
    q = x3c_to_query(inst)
    assert decompose(q, 3) is None  # no exact cover
    assert unranked == []
    h = decompose(q, 4)
    assert h is not None
    assert len(searches) == 2
    found = sum(w is not None for w in searches[1].memo.values())
    assert 0 < len(unranked) <= found, (len(unranked), found)
    assert len(unranked) == len(h.vertices)
    assert any(p >= len(_Index(q).var_atoms) for p in unranked)
