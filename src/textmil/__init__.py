"""Few-shot weakly-supervised slide classification on embedding bags:
scale/shift adaptation of a frozen text encoder plus text-guided
hierarchical attention pooling, trained contrastively."""

from .config import (EncoderConfig, GeneratorSpec, LocalizationConfig, RefinementConfig, RunConfig,
                     TrainConfig, load_config)
from .data import Dataset, SplitPlan, build_dataset, kshot_split, load_dataset, write_dataset
from .errors import ConfigError, DataError, NumericError
from .hierpool import (AttentionParams, BagBatch, Region, SlideBag, batch_bags, instance_saliency,
                       refinement_score, region_encode, wsi_encode)
from .metrics import EvalResult, UndefinedMetricError, auc, dice, evaluate, macro_auc
from .model import (SlideClassifier, build_model, class_probabilities, load_checkpoint,
                    merge_model, save_checkpoint)
from .ssf import SsfParams, attach_depth, count_trainable, ssf_forward
from .textenc import (PromptSet, TextEncoderStack, build_prompt, build_stack, encode,
                      load_prompts, refinement_embedding, save_prompts)
from .train import AdamState, FitResult, adam_step, fit, run_kshot

__version__ = "0.1.0"
