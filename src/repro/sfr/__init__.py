"""Split-frame-rendering schemes: duplication, GPUpd, CHOPIN, AFR."""

from .base import (ReferencePass, SchemeResult, SFRScheme,
                   build_shader_library, reference_pass,
                   render_reference_image)
from .duplication import PrimitiveDuplication
from .gpupd import GPUpd, IdealGPUpd
from .chopin import (Chopin, ChopinOracle, ChopinRoundRobin, ChopinSampled,
                     ChopinWithScheduler, IdealChopin)
from .dfb import DistributedFramebufferChopin
from .sort_middle import SortMiddle
from .afr import AFRResult, AlternateFrameRendering, frame_render_cycles

__all__ = [
    "AFRResult",
    "AlternateFrameRendering",
    "Chopin",
    "ChopinOracle",
    "ChopinRoundRobin",
    "ChopinSampled",
    "ChopinWithScheduler",
    "DistributedFramebufferChopin",
    "GPUpd",
    "IdealChopin",
    "IdealGPUpd",
    "PrimitiveDuplication",
    "ReferencePass",
    "SchemeResult",
    "SFRScheme",
    "SortMiddle",
    "build_shader_library",
    "frame_render_cycles",
    "reference_pass",
    "render_reference_image",
]
