"""Spline-based trajectory fitting with time-variant spatial encoders.

The package fits dense point trajectories with cubic or quintic Hermite
splines whose knot states (positions, tangents and, if quintic, curvatures)
are predicted by small coordinate networks, trains them with a self-contained
reverse-mode autodiff engine, and evaluates temporal interpolation (EPE)
and spatial coherence (Moran's I over motion vectors).
"""

from splinefield.spline import (
    knot_count,
    locate_segment,
    segment_derivative,
)
from splinefield.autodiff import Tape, Var, ParamStore
from splinefield.field import FieldConfig, SplineField
from splinefield.dataio import TrajectorySet, SplitSpec, gen_synthetic, split_frames
from splinefield.trainer import TrainConfig, train, evaluate

__all__ = [
    "knot_count",
    "locate_segment",
    "segment_derivative",
    "Tape",
    "Var",
    "ParamStore",
    "FieldConfig",
    "SplineField",
    "TrajectorySet",
    "SplitSpec",
    "gen_synthetic",
    "split_frames",
    "TrainConfig",
    "train",
    "evaluate",
]
