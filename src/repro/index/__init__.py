"""Spatial indexes: generic R-tree, RR-tree, TR-tree and inverted lists."""

from repro.index.rtree import RTree, RTreeNode, RTreeEntry
from repro.index.inverted import PointList
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex, TransitionEntry

__all__ = [
    "RTree",
    "RTreeNode",
    "RTreeEntry",
    "PointList",
    "RouteIndex",
    "TransitionIndex",
    "TransitionEntry",
]
