"""Every random stream of a run, named and derived in one place.

A stream is a numpy Generator seeded from an entropy list: the seed it
descends from, a fixed tag that keeps it apart from every other stream, and
for some streams an index (a restart, an epoch). The pipeline's stages do not
draw from the master seed directly: each takes a child seed, the first
63-bit draw of its purpose's entropy list, and its own streams descend from
that. Content tags (kernel label, variant name) enter those lists instead of
positions, so a grid cell's result does not depend on where it sits in the
grid, and a variant's does not depend on which other variants run.

STREAMS is the record of which entropy list feeds which stage, and the only
one: no other module of the package touches np.random. Every list is part of
the result; an edited tag changes output bytes. A new stream is one new entry.
"""

import zlib

import numpy as np


def content_tag(label):
    """Stable integer tag for a string, so seeds follow content, not position."""
    return zlib.crc32(label.encode("utf-8"))


# name -> the stream's entropy list; the comment names its consumer
STREAMS = {
    # Generators drawn from directly
    "holdout": lambda master: [master, 0x5E1D],  # dataset.split_holdout
    "fold_deal": lambda seed: [seed, 0xF01D],  # dataset.stratified_kfold
    "background_subsample": lambda seed: [seed, 0xB6],  # attribution.make_background
    "restart": lambda seed, r: [seed, 0xC1, r],  # kernel_kmeans.fit, restart r
    "network_init": lambda seed: [seed, 0xA7],  # network.init_params
    "epoch_shuffle": lambda seed, epoch: [seed, 0xE0, epoch],  # network.train
    "attention_noise": lambda seed: [seed, 0xA7, 99],  # pipeline._variant_batch
    "standin": lambda seed, dataset: [seed, sum(map(ord, dataset))],  # synth.write_synthetic
    # child seeds of the master seed, one per purpose, all read in pipeline
    "background": lambda master: [master, 1],
    "folds": lambda master: [master, 2],
    "cv_cluster": lambda master, cell, k, fold: [master, 3, content_tag(cell), k, fold],
    "cv_network": lambda master, cell, k, fold: [master, 4, content_tag(cell), k, fold],
    "final_refit": lambda master: [master, 5],
    "final_network": lambda master, variant: [master, 6, content_tag(variant)],
}


def rng(name, seed, *index):
    """The Generator of stream `name` descending from `seed`."""
    return np.random.default_rng(STREAMS[name](seed, *index))


def child_seed(master, *tags):
    """Deterministic derived integer seed."""
    return int(np.random.default_rng([master, *tags]).integers(2**63))


def derive(name, master, *index):
    """The child seed of purpose `name` under the master seed."""
    return child_seed(*STREAMS[name](master, *index))
