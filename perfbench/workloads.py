"""Workload definitions shared by the benchmark's processes.

A workload fixes the synthetic graph pair (`ShiftSpec` fields), how the
source model is obtained, and the `AdaptConfig` of the timed `adapt` call.
The workload seed picks one of `POOL` instances, so every run has a
committed reference result to check against and generated inputs can be
reused between runs in one checkout.
"""

from __future__ import annotations

import hashlib
import json

POOL = 10  # seeds map onto this many input instances per workload
FEATURE_DIM = 16
HIDDEN_DIM = 32
NUM_LAYERS = 2
PRETRAIN_LR = 1e-2
# loads of the inputs per run, at least this many and for at least this
# long (small inputs load in milliseconds); setup_s is the median over
# blocks of consecutive loads that last SETUP_BLOCK_S or more
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_BLOCK_S = 0.5

WORKLOADS = {
    "adapt-full-n3000": {
        "spec": {"nodes_per_class": 1000, "num_classes": 3,
                 "intra_p": 0.008, "inter_p": 0.0002},
        # adapt starts from a checkpoint that pretrain_source made with the
        # inputs, in this many epochs
        "input_pretrain_epochs": 200,
        "adapt": {"epochs": 2, "batch_size": 0},
    },
    "adapt-long-n300": {
        "spec": {},
        "input_pretrain_epochs": 200,
        "adapt": {"epochs": 100},
    },
    "sparse-n20k": {
        "spec": {"nodes_per_class": 2000, "num_classes": 10,
                 "intra_p": 0.005, "inter_p": 5e-5},
        # no input checkpoint: pretrain_source runs in the measured process
        # for this many epochs and adapt starts from its result
        "input_pretrain_epochs": 0,
        "timed_pretrain_epochs": 5,
        "adapt": {"epochs": 3, "feature_steps": 0, "structure_steps": 0, "batch_size": 256},
    },
}


def calls_per_round(workload: str) -> int:
    """Most public calls one round of measure.py makes: adapt, preceded in
    the first round by pretrain_source unless adapt starts from the input
    checkpoint."""
    return 1 if WORKLOADS[workload]["input_pretrain_epochs"] else 2


def instance_of(seed: int) -> int:
    return seed % POOL


def spec_kwargs(workload: str, instance: int) -> dict:
    return {"feature_dim": FEATURE_DIM, "seed": instance, **WORKLOADS[workload]["spec"]}


def input_key(workload: str, instance: int) -> str:
    """Directory name for generated inputs: changes when the recipe changes."""
    w = WORKLOADS[workload]
    recipe = {
        "spec": spec_kwargs(workload, instance),
        "pretrain_epochs": w["input_pretrain_epochs"],
        "model": [HIDDEN_DIM, NUM_LAYERS, PRETRAIN_LR],
    }
    digest = hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()[:12]
    return f"{workload}/i{instance}-{digest}"
