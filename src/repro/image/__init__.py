"""Image substrate: containers, filtering, pyramids and synthetic textures."""

from .image import GrayImage, circular_mask, within_border
from .filters import (
    gaussian_blur,
    gaussian_kernel_1d,
    gaussian_kernel_2d,
    sobel_gradients,
)
from .pyramid import (
    ImagePyramid,
    PyramidLevel,
    nearest_neighbor_resize,
    pyramid_level_shapes,
    pyramid_pixel_ratio,
    resize_dimensions,
    resize_nearest_into,
    resize_source_indices,
    validate_pyramid_base,
)
from .synthetic import (
    add_gaussian_noise,
    checkerboard,
    isolated_corner,
    random_blocks,
    rotate_image,
    shift_image,
    textured_noise,
)

__all__ = [
    "GrayImage",
    "circular_mask",
    "within_border",
    "gaussian_blur",
    "gaussian_kernel_1d",
    "gaussian_kernel_2d",
    "sobel_gradients",
    "ImagePyramid",
    "PyramidLevel",
    "nearest_neighbor_resize",
    "pyramid_level_shapes",
    "pyramid_pixel_ratio",
    "resize_dimensions",
    "resize_nearest_into",
    "resize_source_indices",
    "validate_pyramid_base",
    "checkerboard",
    "random_blocks",
    "textured_noise",
    "isolated_corner",
    "add_gaussian_noise",
    "shift_image",
    "rotate_image",
]
