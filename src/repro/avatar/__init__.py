"""Avatar system: pose, motion, viewport, embodiment, codec."""

from .._lazy import lazy_exports

_EXPORTS = {
    "AvatarCodec": ".codec",
    "AvatarUpdate": ".codec",
    "decode": ".codec",
    "EmbodimentProfile": ".embodiment",
    "EXPRESSIONS": ".expression",
    "GESTURE_EXPRESSIONS": ".expression",
    "ExpressionState": ".expression",
    "GestureEvent": ".expression",
    "FaceDirection": ".motion",
    "FacePoint": ".motion",
    "FingerTouch": ".motion",
    "Mingle": ".motion",
    "Motion": ".motion",
    "MotionSequence": ".motion",
    "SnapTurnSequence": ".motion",
    "Spin": ".motion",
    "Stand": ".motion",
    "TimedTurn": ".motion",
    "Wander": ".motion",
    "Pose": ".pose",
    "Vec3": ".pose",
    "normalize_angle": ".pose",
    "YawRatePredictor": ".prediction",
    "ALTSPACE_SERVER_VIEWPORT": ".viewport",
    "ALTSPACE_SERVER_VIEWPORT_DEG": ".viewport",
    "HEADSET_FOV_DEG": ".viewport",
    "HEADSET_VIEWPORT": ".viewport",
    "TURN_STEP_DEG": ".viewport",
    "Viewport": ".viewport",
    "visible_count": ".viewport",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
