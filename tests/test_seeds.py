"""Which random draw feeds which stage is part of the result.

seeds.STREAMS is the one record of it: no other module of src/shapgate
touches np.random, and each stream draws what the expression it replaced
drew, so an edited tag fails here and not only in the benchmark's digests.
"""

import ast
import zlib
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from shapgate import seeds

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapgate"


def _numpy_random_uses(tree):
    """Line numbers of np.random / numpy.random reads and imports."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.random")
                                                  for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
            lines.append(node.lineno)
    return lines


def test_np_random_is_touched_only_in_seeds():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "seeds.py"
             for line in _numpy_random_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"np.random outside seeds.py: {found}"
    assert _numpy_random_uses(ast.parse((PACKAGE / "seeds.py").read_text(encoding="utf-8")))


def _child_seed(entropy):
    return int(np.random.default_rng(entropy).integers(2**63))


# per stream: an index, and the expression the stream replaced, as it read
# before the streams were named (child seeds: pipeline.child_seed's body over
# its tags, with pipeline._name_tag's crc32 for a label)
PINNED = {
    "holdout": ((), lambda s: np.random.default_rng([s, 0x5E1D])),
    "fold_deal": ((), lambda s: np.random.default_rng([s, 0xF01D])),
    "background_subsample": ((), lambda s: np.random.default_rng([s, 0xB6])),
    "restart": ((3,), lambda s: np.random.default_rng([s, 0xC1, 3])),
    "network_init": ((), lambda s: np.random.default_rng([s, 0xA7])),
    "epoch_shuffle": ((3,), lambda s: np.random.default_rng([s, 0xE0, 3])),
    "attention_noise": ((), lambda s: np.random.default_rng([s, 0xA7, 99])),
    "standin": (("heart",), lambda s: np.random.default_rng([s, sum(map(ord, "heart"))])),
    "background": ((), lambda s: _child_seed([s, 1])),
    "folds": ((), lambda s: _child_seed([s, 2])),
    "cv_cluster": (("rbf_g0.1", 3, 4),
                   lambda s: _child_seed([s, 3, zlib.crc32(b"rbf_g0.1"), 3, 4])),
    "cv_network": (("rbf_g0.1", 3, 4),
                   lambda s: _child_seed([s, 4, zlib.crc32(b"rbf_g0.1"), 3, 4])),
    "final_refit": ((), lambda s: _child_seed([s, 5])),
    "final_network": (("full",), lambda s: _child_seed([s, 6, zlib.crc32(b"full")])),
}
PURPOSES = ("background", "folds", "cv_cluster", "cv_network", "final_refit", "final_network")


def test_every_stream_is_pinned():
    assert set(PINNED) == set(seeds.STREAMS)


@pytest.mark.parametrize("seed", [0, 20240])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_stream_draws_what_the_expression_it_replaced_drew(name, seed):
    index, parent = PINNED[name]
    if name in PURPOSES:
        assert seeds.derive(name, seed, *index) == parent(seed)
    else:
        assert np.array_equal(seeds.rng(name, seed, *index).permutation(9),
                              parent(seed).permutation(9))


def test_child_seed_keeps_its_value():
    assert seeds.child_seed(3, 1, 2) == 4030322010696934828


def test_no_two_streams_share_an_entropy_list():
    # one seed, and the same index wherever two streams take one of a kind:
    # equal lists would make two stages draw the same numbers
    lists = {name: seeds.STREAMS[name](7, *index) for name, (index, _) in PINNED.items()}
    lists.update({f"standin/{d}": seeds.STREAMS["standin"](7, d)
                  for d in ("diabetes", "credit")})
    equal = [(a, b) for a, b in combinations(lists, 2) if lists[a] == lists[b]]
    assert not equal, f"streams with one entropy list: {equal}"
