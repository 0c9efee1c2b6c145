"""Quasi-norms, embedding decisions and witness sequences for Besov-type
spaces modelled on generalised Morrey spaces.

The package is organised bottom-up:

* :mod:`besovmorrey.phi` -- weight profiles phi(t) and their admissibility,
* :mod:`besovmorrey.morrey` -- Morrey quasi-norms of dyadic step functions,
* :mod:`besovmorrey.dyadic` -- dyadic cubes, sparse coefficient sequences and
  the sequence-space quasi-norm,
* :mod:`besovmorrey.embedding` -- the sharp embedding decision procedure,
* :mod:`besovmorrey.witness` -- extremal sequences certifying failures,
* :mod:`besovmorrey.wavelet` -- Daubechies filter banks, analysis/synthesis
  and wavelet-side norm estimates,
* :mod:`besovmorrey.cli` -- command line front end.
"""

from .errors import (
    CapacityError,
    DomainError,
    ExtrapolationError,
    FloatRangeError,
    InsufficientMomentsError,
    NoProfileError,
    NotApplicableError,
    ResolutionError,
    TableFormatError,
    WitnessSelectionError,
    WitnessTooLargeError,
)
from .phi import (
    PhiSpec,
    PowerLogProfile,
    asymptotic_profile,
    capped,
    cappedlog,
    check_class_gp,
    check_nontrivial,
    const,
    eval_phi,
    floorone,
    format_phi,
    normalize,
    parse_phi,
    power,
    powerlog,
    tabulated,
    twopower,
)
from .dyadic import (
    DyadicSequence,
    SpaceParams,
    b_infty_norm,
    level_quantity,
    n_norm,
    n_norm_via_morrey,
    parse_space_params,
    tilde_norm,
)
from .embedding import (
    EmbeddingQuery,
    EmbeddingVerdict,
    alpha_sequence,
    decide,
    decide_from_besov,
    decide_into_besov,
    decide_lebesgue_targets,
    decide_same_phi,
    decide_under_IS,
    check_condition_IS,
    q_star,
    spaces_equal,
)
from .witness import (
    beta_witness,
    capacity_witness,
    divergence_scan,
    greedy_distribution,
    select_witness_level,
    shift_family,
    simple_witness,
)
from .wavelet import (
    SampledFunction,
    WaveletCoefficients,
    WaveletSystem,
    analyze,
    coefficients_from_entries,
    daubechies_system,
    detail_genders,
    function_norm_estimate,
    highpass_moment,
    kappa_dominate,
    load_samples,
    min_vanishing_moments,
    save_samples,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
