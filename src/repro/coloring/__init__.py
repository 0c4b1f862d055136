"""Race-free execution orderings: conflict graphs, coloring, permutations.

This package implements the three execution schemes the paper evaluates
(Section 4 / Fig 8a): the original two-level coloring, "full permute" and
"block permute".
"""

from .block import (
    BlockLayout,
    color_blocks,
    is_valid_block_coloring,
    make_blocks,
)
from .conflict import (
    conflict_targets,
    is_valid_coloring,
    racing_slots,
    slot_targets,
)
from .greedy import color_elements, greedy_color, jp_color
from .permute import (
    BlockPermutation,
    Permutation,
    block_permute,
    element_colors_by_block,
    full_permute,
)

__all__ = [
    "BlockLayout",
    "BlockPermutation",
    "Permutation",
    "block_permute",
    "color_blocks",
    "color_elements",
    "conflict_targets",
    "element_colors_by_block",
    "full_permute",
    "greedy_color",
    "is_valid_block_coloring",
    "is_valid_coloring",
    "jp_color",
    "make_blocks",
    "racing_slots",
    "slot_targets",
]
