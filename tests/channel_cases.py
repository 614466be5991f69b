"""Channels shared by the tests of the matrix-free passes and the open-loop solver."""

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
