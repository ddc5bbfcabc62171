"""REUNITE registered under the common protocol interface."""

from __future__ import annotations

from typing import Hashable

from repro.metrics.distribution import DataDistribution
from repro.protocols.base import RoundDriverProtocol, register_protocol
from repro.protocols.reunite.static_driver import StaticReunite

NodeId = Hashable


@register_protocol("reunite")
class ReuniteProtocol(RoundDriverProtocol):
    """REUNITE baseline, round-driven to convergence."""

    driver_cls = StaticReunite

    def add_receiver(self, receiver: NodeId) -> None:
        self.driver.add_receiver(receiver)
        self.receivers.add(receiver)

    def remove_receiver(self, receiver: NodeId) -> None:
        self.driver.remove_receiver(receiver)
        self.receivers.discard(receiver)

    def converge(self, max_rounds: int = 40) -> int:
        return self.driver.converge(max_rounds=max_rounds)

    def distribute_data(self) -> DataDistribution:
        return self.driver.distribute_data()

    def soft_state(self):
        from repro.verify.state import reunite_soft_state

        return reunite_soft_state(self.driver)
