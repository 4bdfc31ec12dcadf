from .samplers import SetIntersectionInstance, check_observation1
from .protocol import CostVector, Message, ProtocolResult, run_embedding_protocol

__all__ = [
    "SetIntersectionInstance", "check_observation1",
    "CostVector", "Message", "ProtocolResult", "run_embedding_protocol",
]
