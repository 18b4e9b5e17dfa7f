"""ptqkit: post-training quantization toolkit (uniform, dual-region and
outlier-grouped quantizers, calibration-time scale search, and a toy network
that runs the whole pipeline). The root names the main calibrators and
codecs; everything else is imported from its module."""

from .dual_region import DualRegionCode, calibrate_dual_region, fake_dual_region, pack_code, unpack_code
from .generate import synth
from .io import read_dump
from .outlier_groups import ThresholdStrategy, calibrate_grouped, fake_grouped
from .search import SearchSpace, alternating_matmul_search, mse_grid_search
from .toynet import run_pipeline
from .uniform import dequantize, fake_quant_array, fold_batchnorm, make_params, quantize

__version__ = "0.1.0"
