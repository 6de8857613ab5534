"""Application layer: workloads, RPC, KVS, TCP message framing."""

from .framing import TcpMessageFraming
from .kvs import REQUEST_SIZE, KvRequest, KvResponse, KvsClient, KvsServer
from .rpc import RpcClient, RpcRequest, RpcResponse, RpcServer
from .workload import (FixedSize, LogUniformSize, MessageWorkload,
                       PoissonArrivals, UniformArrivals)

__all__ = [
    "FixedSize", "LogUniformSize", "PoissonArrivals", "UniformArrivals",
    "MessageWorkload",
    "RpcServer", "RpcClient", "RpcRequest", "RpcResponse",
    "KvsServer", "KvsClient", "KvRequest", "KvResponse", "REQUEST_SIZE",
    "TcpMessageFraming",
]
