"""Invertible MLPs trained by backprop, target propagation, and
gradient-adjusted incremental target propagation.

The learning rules live in :mod:`gaitprop.rules`; the library exposes the
network primitives and rule entry points at the top level.
"""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    SingularMatrix,
    invert,
    make_rng,
    orthogonal_init,
    orthogonality_error,
    xavier_init,
)
from .network import (  # noqa: F401
    Activation,
    ForwardTrace,
    Layer,
    Network,
    build_network,
    forward,
    load_checkpoint,
    output,
    save_checkpoint,
)
from .rules import (  # noqa: F401
    TargetStack,
    bp_updates,
    correction_matrices,
    gait_targets,
    gait_updates,
    itp_targets,
    itp_updates,
    ortho_penalty,
    ortho_reg_grad,
    tp_targets,
    tp_updates,
)
from .optim import AdamState, adam_step  # noqa: F401
from .diagnostics import AlignmentReport, align, ortho_drift  # noqa: F401
