"""Multi-modal fusion on a frozen encoder, from scratch on numpy.

Reverse-mode autodiff tensor core, selective state space scans, prompt
routing between modality streams, parallel adapters, cross-modal token
aggregation, and a deterministic toy training harness.

Attribute access is lazy (PEP 562) so that importing the package does not
pull in numpy; the command line entry point relies on this to configure
BLAS thread counts before numpy initializes its thread pools.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Tensor": "tensor",
    "Param": "tensor",
    "no_grad": "tensor",
    "NonFiniteError": "tensor",
    "set_default_dtype": "tensor",
    "default_dtype": "tensor",
    "RunConfig": "config",
    "load_config": "config",
    "save_config": "config",
    "FusionModel": "model",
    "build_model": "train",
    "build_world": "train",
    "evaluate": "retrieval",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{submodule}", __name__), name)
