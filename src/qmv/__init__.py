"""Quantitative verification of DTMCs, MDPs and Markov automata.

The package combines exact numerical model checking (policy iteration per
strongly connected component, step-bounded CDFs, expected time and
time-bounded reachability for Markov automata) with statistical model
checking under lightweight scheduler sampling, for models written in a
small guarded-command language.
"""

__version__ = "0.1.0"

from qmv.core import (
    Choice,
    Distribution,
    ExplicitStateSpace,
    MarkovianTransitions,
    ModelClass,
    Property,
    PropertyKind,
    Direction,
    SpaceBuilder,
    ValueResult,
    VariableInfo,
    validate,
)

__all__ = [
    "__version__",
    "Choice",
    "Distribution",
    "ExplicitStateSpace",
    "MarkovianTransitions",
    "ModelClass",
    "Property",
    "PropertyKind",
    "Direction",
    "SpaceBuilder",
    "ValueResult",
    "VariableInfo",
    "validate",
]
