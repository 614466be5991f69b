"""Channels shared by the tests of the matrix-free passes and of both solvers."""

from postcap import CustomPost, MaryPost, PostAB, PostAlpha

THREE_STATE_CUSTOM = CustomPost(
    (
        [[0.7, 0.0, 0.1], [0.3, 0.6, 0.0], [0.0, 0.4, 0.9]],
        [[0.5, 0.1, 0.3], [0.3, 0.8, 0.1], [0.2, 0.1, 0.6]],
        [[1.0, 0.3, 0.2], [0.0, 0.6, 0.2], [0.0, 0.1, 0.6]],
    )
)
TWO_INPUT_CUSTOM = CustomPost(
    (
        [[0.7, 0.1], [0.3, 0.0], [0.0, 0.9]],
        [[0.2, 0.5], [0.8, 0.1], [0.0, 0.4]],
        [[0.0, 0.3], [0.5, 0.3], [0.5, 0.4]],
    )
)
PASS_SPECS = [
    PostAlpha(0.3),
    PostAB(0.9, 0.7),
    MaryPost(1),
    MaryPost(2),
    MaryPost(4),
    THREE_STATE_CUSTOM,
    TWO_INPUT_CUSTOM,
]

# (spec, n, s0) whose feedback stage problems need the Newton step's
# safeguards; each fails without the one named.
STAGE_EDGE_CASES = [
    # shifted Hessian: equal columns and more inputs than outputs
    (
        CustomPost(
            (
                [[0.0, 0.0, 0.8, 0.0, 0.1], [0.0, 0.0, 0.0, 0.91, 0.0],
                 [0.38, 0.95, 0.2, 0.0, 0.0], [0.62, 0.05, 0.0, 0.09, 0.9]],
                [[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.43, 0.0, 0.0, 0.0],
                 [1.0, 0.57, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0]],
                [[0.62, 0.0, 0.96, 0.98, 0.4], [0.0, 0.99, 0.0, 0.02, 0.06],
                 [0.0, 0.01, 0.03, 0.0, 0.03], [0.38, 0.0, 0.01, 0.0, 0.51]],
                [[1.0, 0.52, 0.79, 0.67, 0.95], [0.0, 0.0, 0.21, 0.0, 0.05],
                 [0.0, 0.25, 0.0, 0.0, 0.0], [0.0, 0.23, 0.0, 0.33, 0.0]],
            )
        ),
        2,
        3,
    ),
    # halfway stop: input 2 alone reaches output 1 from state 2
    (
        CustomPost(
            (
                [[0.0, 0.0, 0.8], [0.82, 0.54, 0.2], [0.18, 0.46, 0.0]],
                [[0.39, 0.3, 0.0], [0.37, 0.0, 0.0], [0.24, 0.7, 1.0]],
                [[0.0, 0.9, 0.18], [0.0, 0.0, 0.06], [1.0, 0.1, 0.76]],
            )
        ),
        2,
        0,
    ),
    # one input readmitted at a time
    (
        CustomPost(
            (
                [[0.396, 0.666, 0.051, 0.082], [0.107, 0.334, 0.947, 0.299],
                 [0.497, 0.0, 0.002, 0.619]],
                [[0.291, 0.0, 1.0, 0.0], [0.592, 0.0, 0.0, 0.71], [0.117, 1.0, 0.0, 0.29]],
                [[1.0, 1.0, 0.0, 0.789], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.211]],
            )
        ),
        3,
        1,
    ),
    # Newton steps, once started, go on: Blahut-Arimoto cannot readmit
    (
        CustomPost(
            (
                [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                [[0.0, 0.358], [1.0, 0.345], [0.0, 0.297]],
                [[0.769, 0.86], [0.019, 0.001], [0.212, 0.139]],
            )
        ),
        2,
        2,
    ),
    # the stop needs every supported input at the value, not just none above
    (
        CustomPost(
            (
                [[0.6195, 0.619, 0.6195], [0.3805, 0.381, 0.3805]],
                [[0.5094, 0.3315, 0.5094], [0.4906, 0.6685, 0.4906]],
            )
        ),
        3,
        1,
    ),
]
