"""Minimal numerical kernel: the ops production runs, their manual
gradients, AdamW and the finite-difference oracle; nothing else is exported.

The backward writes parameter gradients into the views it is given (see
``ops``) and AdamW updates one flat vector.  ``CmcParams`` in ``reranker``
owns the layout of weights and gradients alike, and the checkpoint format.
"""

from .attention import attention_backward, multi_head_self_attention
from .gradcheck import finite_difference_gradient, gradients_close
from .layer import LayerParams, encoder_layer_backward, encoder_layer_forward
from .ops import (gelu, gelu_backward, layer_norm_backward, layer_norm_forward,
                  linear_backward, linear_forward)
from .optim import OptimizerState, adamw_step, warmup_schedule

__all__ = [
    "attention_backward", "multi_head_self_attention",
    "finite_difference_gradient", "gradients_close",
    "LayerParams", "encoder_layer_backward", "encoder_layer_forward",
    "gelu", "gelu_backward", "layer_norm_backward",
    "layer_norm_forward", "linear_backward", "linear_forward",
    "OptimizerState", "adamw_step", "warmup_schedule",
]
