"""ptqkit: post-training quantization toolkit.

Uniform affine/symmetric quantization, a dual-region quantizer for
softmax/GeLU-shaped activations, iterative outlier-grouped quantization,
calibration-time scale search, and a deterministic toy network that runs
the whole calibration pipeline end to end.
"""

from .dual_region import (
    DualRegionCode,
    DualRegionParams,
    assign_region,
    calibrate_dual_region,
    decode_tensor,
    dual_region_dequantize,
    dual_region_quantize,
    encode_tensor,
    fake_dual_region,
    pack_code,
    softmax_r2_scale,
    unpack_code,
)
from .errors import (
    EmptyInput,
    FormatError,
    InvalidArgument,
    QuantizationError,
    ShapeError,
)
from .generate import synth
from .io import (
    ParamDoc,
    emit_params,
    parse_params,
    read_code_dump,
    read_dump,
    write_code_dump,
    write_dump,
    write_report,
)
from .metrics import MaskMetrics, mask_metrics
from .outlier_groups import (
    GroupedQuantParams,
    QuantGroup,
    ThresholdStrategy,
    calibrate_grouped,
    compute_threshold,
    fake_grouped,
    group_index,
    grouped_dequantize,
    grouped_quantize,
    partition_by_threshold,
)
from .report import CalibrationReport, HookReport
from .search import (
    MatmulScaleSearchResult,
    SearchSpace,
    alternating_matmul_search,
    channelwise_params,
    hessian_metric,
    hessian_metric_fn,
    mse_grid_search,
    mse_metric,
    percentile_calibrate,
)
from .tensor import (
    SummaryStats,
    Tensor,
    as_tensor,
    channel_minmax,
    percentile,
    summary_stats,
)
from .toynet import (
    HOOKS,
    PRESETS,
    ActivationTrace,
    PipelineConfig,
    QuantPlan,
    ToyNetWeights,
    backward_collect,
    forward,
    run_pipeline,
    seeded_inputs,
)
from .uniform import (
    BNParams,
    QuantErrorStats,
    QuantParams,
    QuantizedTensor,
    dequantize,
    fake_quant,
    fake_quant_array,
    fold_batchnorm,
    make_channel_params,
    make_params,
    quant_error,
    quantize,
)

__version__ = "0.1.0"
