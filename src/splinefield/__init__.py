"""Spline-based trajectory fitting with time-variant spatial encoders.

The package fits dense point trajectories with cubic Hermite splines whose
knot states (offsets and tangents) are predicted by small coordinate
networks, trains them with a self-contained reverse-mode autodiff engine,
and evaluates temporal interpolation (EPE) and spatial coherence
(Moran's I over motion vectors).
"""

from splinefield.spline import (
    SplineTimeline,
    SegmentQuery,
    knot_count,
    locate_segment,
    segment_derivative,
)
from splinefield.autodiff import Tape, Var, ParamStore, fd_check
from splinefield.field import FieldConfig, SplineField
from splinefield.dataio import TrajectorySet, SplitSpec, gen_synthetic, split_frames
from splinefield.trainer import TrainConfig, train, evaluate

__all__ = [
    "SplineTimeline",
    "SegmentQuery",
    "knot_count",
    "locate_segment",
    "segment_derivative",
    "Tape",
    "Var",
    "ParamStore",
    "fd_check",
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
