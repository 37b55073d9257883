"""Emerging memories (§III): STT-MRAM and RRAM reliability models."""

from repro.emerging.rram import RramCrossbar, RramParams, crossbar_hammer_study
from repro.emerging.sttmram import (
    SttMramArray,
    SttParams,
    read_disturb_probability,
    scaling_study,
)

__all__ = [
    "RramCrossbar",
    "RramParams",
    "crossbar_hammer_study",
    "SttMramArray",
    "SttParams",
    "read_disturb_probability",
    "scaling_study",
]
