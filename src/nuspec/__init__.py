"""Numerical laboratory for non-uniform specification certificates on
concrete hyperbolic surface maps: Lyapunov spectra and hyperbolicity blocks,
recurrence statistics, pseudo-orbit shadowing, and periodic-point
certificates for weighted dynamical balls."""

from .dynamics import (
    Point2,
    Space,
    SystemKind,
    SystemSpec,
)
from .errors import NuspecError
from .lyapunov import (
    LyapunovSpectrum,
    PesinBlockParams,
    block_sample,
    lyapunov_spectrum,
    pesin_block_index,
)
from .recurrence import (
    ReturnTimeSequence,
    SetSpec,
    ball_return_times,
    birkhoff_indicator_average,
    interval_hit_check,
    nonlacunarity_profile,
    recurrence_scaling,
    return_times,
)
from .shadowing import (
    Margins,
    PeriodicOrbitSolution,
    PseudoOrbit,
    ShadowingProfile,
    assemble,
    check_domination,
    newton_refine_periodic,
    shadowing_profile,
)
from .specification import (
    CoverContext,
    GnsCertificate,
    NsCertificate,
    SlowVaryingFn,
    TransitionBounds,
    build_cover,
    build_cover_context,
    estimate_transitions,
    gns_certificate,
    ns_certificate,
    select_indices,
    sublinearity_scan,
)

__version__ = "0.1.0"
