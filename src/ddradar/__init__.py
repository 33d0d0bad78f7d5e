"""Discrete delay-Doppler radar toolkit over the modulo-MN shift group."""

from .ambiguity import (
    AmbiguitySurface,
    FastPulsonePrecomp,
    coded_waveform,
    cross_ambiguity_fft,
    cross_ambiguity_naive,
    cross_ambiguity_point,
    fast_cross_ambiguity,
    fast_pulsone_precompute,
    fast_pulsone_query,
    fast_pulsone_surface,
    moyal_residual,
    zc_sequence,
)
from .ddcore import (
    PeriodicSequence,
    QuasiPeriodicArray,
    dzt,
    idzt,
    inner,
)
from .heisenberg import (
    HeisenbergElement,
    apply_dd,
    apply_td,
    compose,
    inverse,
)
from .modmath import Modulus
from .radarsim import (
    RadarImage,
    ScatteringEnvironment,
    add_noise,
    apply_channel,
    form_image,
    predicted_image,
    readout_targets,
)
from .subgroups import (
    DDRegion,
    LineSubgroup,
    chirp,
    crystallization_check,
    eigenvector,
    pulsone,
)
from .symplectic import (
    SL2Element,
    gdaft_apply,
    lfm_apply,
    papr_db,
    remap_for,
)

__version__ = "0.1.0"
