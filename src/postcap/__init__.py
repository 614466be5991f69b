"""Capacities of channels whose state is the previous output.

Library layout: ``probability`` (sequence pmfs, causal kernels and
entropies), ``channels`` (channel families, sequence-level channel
matrices and the matrix-free channel passes), ``directed_info``
(directed and mutual information), ``closed_form`` (analytic
capacities), ``construction`` (recursive input constructions and
feasibility intervals), ``optimize`` (solvers and optimality
certificates) and ``cli`` (the postcap command).
"""

from .channels import (
    ChannelMatrix,
    CustomPost,
    MaryPost,
    PostAB,
    PostAlpha,
    SingularChannelError,
    build_sequence_kernel,
    initial_states,
    input_alphabet,
    output_alphabet,
    step_kernel,
)
from .closed_form import (
    MaryFeedbackSolution,
    PostABSolution,
    PostAlphaSolution,
    binary_dmc_capacity,
    closed_form_solution,
    mary_feedback_capacity,
    mary_output_chain,
    mary_scheme_rate,
    mary_state_policy,
    mary_stationary_distribution,
    post_alpha_capacity,
)
from .construction import (
    IntervalSet,
    InequalityReport,
    beta_interval_alpha,
    beta_intervals_ab,
    induction_step_check,
    inequality_sweep,
    output_markov_pmf,
    recursive_input_ab,
    recursive_input_alpha,
)
from .directed_info import (
    concavity_probe,
    directed_information,
    mutual_information_given_state,
)
from .optimize import (
    FeedbackReport,
    KktReport,
    MatchReport,
    OptimizerConfig,
    kkt_check,
    maximize_di_feedback,
    maximize_mi_nofeedback,
    open_loop_match,
    upper_bound,
)
from .probability import (
    CausalKernel,
    SequencePmf,
    StepPolicy,
    binary_entropy,
    compose_causal,
    entropy,
    index_sequence,
    random_policy,
    sequence_index,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
