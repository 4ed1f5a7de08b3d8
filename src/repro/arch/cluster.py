"""Chip cluster: the wheel of ConvLayer chips around an FcLayer hub
(paper Sec 3.3.1).

ConvLayer chips sit on the wheel's circumference, each processing a
different network input; the FcLayer chip at the hub batches the FC-layer
work of all spokes, amortising FC weight traffic by the wheel's batch
size.  The arcs connect adjacent ConvLayer chips so CONV layers can be
split across chips and so weight gradients can be accumulated after each
minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.chip import ChipConfig, ChipKind
from repro.errors import ConfigError


@dataclass(frozen=True)
class ClusterConfig:
    """A wheel of ``conv_chip_count`` ConvLayer chips and one FcLayer chip."""

    conv_chip: ChipConfig
    fc_chip: ChipConfig
    conv_chip_count: int
    spoke_bandwidth: float  # ConvLayer -> FcLayer hub link, bytes/s
    arc_bandwidth: float  # adjacent ConvLayer <-> ConvLayer link, bytes/s

    def __post_init__(self) -> None:
        if self.conv_chip.kind is not ChipKind.CONV:
            raise ConfigError("cluster's conv_chip must be a ConvLayer chip")
        if self.fc_chip.kind is not ChipKind.FC:
            raise ConfigError("cluster's fc_chip must be an FcLayer chip")
        if self.conv_chip_count < 1:
            raise ConfigError("cluster needs at least one ConvLayer chip")

    @property
    def comp_tile_count(self) -> int:
        return (
            self.conv_chip_count * self.conv_chip.comp_tile_count
            + self.fc_chip.comp_tile_count
        )

    @property
    def mem_tile_count(self) -> int:
        return (
            self.conv_chip_count * self.conv_chip.mem_tile_count
            + self.fc_chip.mem_tile_count
        )

    @property
    def tile_count(self) -> int:
        return self.comp_tile_count + self.mem_tile_count

    def peak_flops(self, frequency_hz: float) -> float:
        return (
            self.conv_chip_count * self.conv_chip.peak_flops(frequency_hz)
            + self.fc_chip.peak_flops(frequency_hz)
        )

    def fc_batch_size(self, conv_chips_per_copy: int = 1) -> int:
        """Inputs the FcLayer hub batches per FC pass.

        One network copy per ConvLayer chip gives a batch equal to the
        wheel's spoke count; spreading a large network over
        ``conv_chips_per_copy`` chips reduces the batch proportionally
        (paper: "doing so reduces the batch size to the FcLayer chip").
        """
        if conv_chips_per_copy < 1:
            raise ConfigError("conv_chips_per_copy must be >= 1")
        return max(1, self.conv_chip_count // conv_chips_per_copy)
