"""scenefuse: scene recognition from ambient audio and dominant image colors.

Audio clips become one-sided magnitude spectra flattened into feature
vectors; images become dominant-color palettes.  Each modality gets its own
K-Means scene classifier with a scaled-distance confidence, a timed state
machine fuses the two streams, and a small trainable net maps recognized
scenes to action codes.  Everything is seeded and deterministic.

The package root re-exports only the names the benchmark's corpus builder
(`bench/corpus.py`) imports from it; everything else is imported from its
module.
"""

from .audio_pipeline import AudioClip, encode_wav, synth_ambient
from .persistence import EventScript, ScriptEvent, format_event_script
from .vision_pipeline import Image, encode_ppm, synth_scene_image

__version__ = "0.1.0"
