"""scenefuse: scene recognition from ambient audio and dominant image colors.

Audio clips become one-sided magnitude spectra flattened into feature
vectors; images become dominant-color palettes.  Each modality gets its own
K-Means scene classifier with a scaled-distance confidence, a timed state
machine fuses the two streams, and a small trainable net maps recognized
scenes to action codes.  Everything is seeded and deterministic.
"""

from .action_learning import (
    ActionExample,
    ActionNet,
    action_repl,
    encode_onehot,
    predict_action,
    train_actions,
)
from .audio_pipeline import (
    AudioClip,
    acoustic_features,
    analysis_window,
    decode_wav,
    encode_wav,
    magnitude_spectrum,
    synth_ambient,
)
from .clustering import (
    KMeansModel,
    KMeansParams,
    assign,
    confidence,
    fit,
    predict,
)
from .fusion import (
    IDENTIFIED,
    NO_SCENE,
    PENDING,
    FusionConfig,
    FusionState,
    SceneDecision,
    on_acoustic,
    on_visual_photo,
    tick,
)
from .persistence import (
    EventScript,
    ModelBundle,
    ScriptEvent,
    format_event_script,
    load_bundle,
    load_event_script,
    parse_event_script,
    save_bundle,
)
from .scene_model import (
    ACOUSTIC,
    VISUAL,
    SceneClassifier,
    ScenePrediction,
    classify,
    train_classifier,
)
from .vision_pipeline import (
    Image,
    decode_ppm,
    dominant_colors,
    encode_ppm,
    palette_features,
    synth_scene_image,
)

__version__ = "0.1.0"
