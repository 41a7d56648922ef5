"""Service frequency recommendation from time-sliced RkNNT demand.

The paper notes that "by taking the temporal factor into consideration, i.e.,
user transitions at different time periods, [RkNNT] can help further adjust
the frequency of planned vehicles on the planned routes".  This module
implements that workflow:

1. partition the transition dataset into time slots using the transitions'
   timestamps,
2. run an RkNNT query for the target route against each slot's transitions,
3. convert per-slot demand into a recommended number of vehicles per slot
   given a vehicle capacity and a target maximum load factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.rknnt import RkNNTProcessor, VORONOI
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition


@dataclass
class SlotDemand:
    """Estimated demand and recommended service level for one time slot."""

    #: Inclusive start and exclusive end of the slot (same unit as timestamps).
    slot_start: float
    slot_end: float
    #: Number of transitions active in the slot.
    active_transitions: int
    #: Estimated riders: size of the route's RkNNT set within the slot.
    riders: int
    #: Recommended vehicles for the slot.
    vehicles: int

    @property
    def load_per_vehicle(self) -> float:
        """Average riders per recommended vehicle (0 when no service needed)."""
        if self.vehicles == 0:
            return 0.0
        return self.riders / self.vehicles


class FrequencyPlanner:
    """Recommends per-slot vehicle counts for a route from timestamped demand.

    Parameters
    ----------
    routes:
        The route dataset ``DR`` (competitor routes for the RkNNT queries).
    transitions:
        Timestamped transitions; rows without a timestamp are ignored.
    k:
        ``k`` of the underlying RkNNT queries.
    vehicle_capacity:
        Passengers one vehicle can carry over a slot.
    target_load_factor:
        Fraction of the capacity the operator wants to use at most
        (0 < factor ≤ 1); lower values yield more vehicles.
    """

    def __init__(
        self,
        routes: RouteDataset,
        transitions: TransitionDataset,
        k: int = 10,
        vehicle_capacity: int = 40,
        target_load_factor: float = 0.8,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if vehicle_capacity <= 0:
            raise ValueError("vehicle_capacity must be positive")
        if not 0.0 < target_load_factor <= 1.0:
            raise ValueError("target_load_factor must be in (0, 1]")
        self.routes = routes
        self.transitions = transitions
        self.k = k
        self.vehicle_capacity = vehicle_capacity
        self.target_load_factor = target_load_factor

    # ------------------------------------------------------------------
    # Slot handling
    # ------------------------------------------------------------------
    def _timestamped(self) -> List[Transition]:
        return [t for t in self.transitions if t.timestamp is not None]

    def time_range(self) -> Tuple[float, float]:
        """(min, max) timestamp over the timestamped transitions."""
        stamped = self._timestamped()
        if not stamped:
            raise ValueError("the transition dataset has no timestamped rows")
        times = [t.timestamp for t in stamped]
        return min(times), max(times)

    def slot_transitions(
        self, slot_start: float, slot_end: float
    ) -> TransitionDataset:
        """Transitions whose timestamp falls in ``[slot_start, slot_end)``."""
        return TransitionDataset(
            t
            for t in self._timestamped()
            if slot_start <= t.timestamp < slot_end
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def vehicles_needed(self, riders: int) -> int:
        """Vehicles needed to carry ``riders`` at the target load factor."""
        if riders <= 0:
            return 0
        effective_capacity = self.vehicle_capacity * self.target_load_factor
        return max(1, math.ceil(riders / effective_capacity))

    def plan(
        self,
        route: Union[Route, Sequence[Sequence[float]]],
        slots: int = 4,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[SlotDemand]:
        """Per-slot demand and vehicle recommendation for ``route``.

        Parameters
        ----------
        slots:
            Number of equal-width time slots to divide the range into.
        time_range:
            Optional explicit (start, end); defaults to the dataset's range.
        """
        if slots <= 0:
            raise ValueError("slots must be positive")
        start, end = time_range if time_range is not None else self.time_range()
        if end <= start:
            end = start + 1.0
        width = (end - start) / slots

        plan: List[SlotDemand] = []
        for index in range(slots):
            slot_start = start + index * width
            # The final slot is closed so the maximum timestamp is included.
            slot_end = end + 1e-9 if index == slots - 1 else slot_start + width
            slot_data = self.slot_transitions(slot_start, slot_end)
            if len(slot_data) == 0:
                plan.append(
                    SlotDemand(slot_start, slot_end, 0, 0, self.vehicles_needed(0))
                )
                continue
            processor = RkNNTProcessor(self.routes, slot_data)
            result = processor.query(route, self.k, method=VORONOI)
            riders = len(result)
            plan.append(
                SlotDemand(
                    slot_start=slot_start,
                    slot_end=slot_end,
                    active_transitions=len(slot_data),
                    riders=riders,
                    vehicles=self.vehicles_needed(riders),
                )
            )
        return plan

    def peak_slot(self, plan: Sequence[SlotDemand]) -> SlotDemand:
        """The slot with the highest estimated demand."""
        if not plan:
            raise ValueError("plan must not be empty")
        return max(plan, key=lambda slot: slot.riders)
