"""Minimal numerical kernel: forward ops, manual gradients, AdamW, oracles.

The backward writes parameter gradients into the views it is given (see
``ops``) and AdamW updates one flat vector.  ``CmcParams`` in ``reranker``
owns the layout of weights and gradients alike, and the checkpoint format.
"""

from .attention import attention_backward, attention_forward, multi_head_self_attention
from .gradcheck import finite_difference_gradient, gradients_close
from .layer import (LayerParams, encoder_layer_backward, encoder_layer_forward,
                    encoder_layer_forward_recorded)
from .ops import (gelu, gelu_backward, layer_norm, layer_norm_backward,
                  layer_norm_forward, linear_backward, linear_forward,
                  softmax_rows)
from .optim import OptimizerState, adamw_step, warmup_schedule

__all__ = [
    "attention_backward", "attention_forward", "multi_head_self_attention",
    "finite_difference_gradient", "gradients_close",
    "LayerParams", "encoder_layer_backward",
    "encoder_layer_forward", "encoder_layer_forward_recorded",
    "gelu", "gelu_backward", "layer_norm", "layer_norm_backward",
    "layer_norm_forward", "linear_backward", "linear_forward",
    "softmax_rows",
    "OptimizerState", "adamw_step", "warmup_schedule",
]
