"""epkit: exceptional points of non-Hermitian Hamiltonians.

Detection via nilpotency of the traceless part, gauge-fixed Jordan chains,
hierarchical composition through unidirectional coupling, spectral response
strengths by independent routes, and randomized perturbation scaling
experiments.
"""

from . import cli, cmatrix, compose, ep_core, jordan, models, perturb
from .cmatrix import (
    frobenius_norm,
    kernel_vector,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)
from .compose import (
    CompositeSystem,
    block_compose,
    compose_many,
    composite_response,
    genericity_product,
    response_upper_bound,
)
from .ep_core import (
    EpReport,
    SplittingPrediction,
    detect_ep,
    greens_function,
    machine_precision_bound,
    nilpotency_index,
    predicted_splitting,
    response_strength,
    splitting_bound,
    traceless_part,
)
from .errors import EpkitError
from .jordan import JordanChain, coupling_amplitude, jordan_chain, response_from_chain
from .models import (
    dimer_trimer_system,
    pt_dimer,
    pt_trimer,
    single_entry_coupling,
)
from .perturb import (
    SlopeFit,
    fit_slope,
    max_splitting,
    random_generic,
    random_preserving,
    sweep,
)

__version__ = "0.1.0"
