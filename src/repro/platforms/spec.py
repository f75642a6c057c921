"""Platform specifications: the three systems compared in the paper.

Table 3 compares eSLAM against software implementations on the Zynq's ARM
Cortex-A9 (767 MHz) and an Intel i7-4700MQ.  Power figures are the paper's
measured board/package power; they drive the energy-per-frame computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import PlatformModelError


class PlatformKind(Enum):
    """How the SLAM stages are executed on a platform."""

    CPU_ONLY = "cpu_only"
    HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of an evaluation platform."""

    name: str
    kind: PlatformKind
    clock_hz: float
    power_w: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise PlatformModelError("clock frequency must be positive")
        if self.power_w <= 0:
            raise PlatformModelError("power must be positive")


#: The Zynq XCZ7045's embedded ARM Cortex-A9 host (767 MHz, 1.574 W).
ARM_CORTEX_A9 = PlatformSpec(
    name="ARM Cortex-A9",
    kind=PlatformKind.CPU_ONLY,
    clock_hz=767e6,
    power_w=1.574,
    description="Zynq XCZ7045 PS running the full pipeline in software",
)

#: Intel i7-4700MQ desktop-class CPU (47 W TDP as used in Table 3).
INTEL_I7 = PlatformSpec(
    name="Intel i7-4700MQ",
    kind=PlatformKind.CPU_ONLY,
    clock_hz=2.4e9,
    power_w=47.0,
    description="Laptop-class x86 CPU running the full pipeline in software",
)

#: eSLAM: ARM host + FPGA accelerators at 100 MHz (1.936 W total).
ESLAM = PlatformSpec(
    name="eSLAM",
    kind=PlatformKind.HETEROGENEOUS,
    clock_hz=100e6,
    power_w=1.936,
    description="Zynq XCZ7045: FE/FM on programmable logic, PE/PO/MU on the ARM host",
)
