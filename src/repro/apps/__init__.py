"""Application layer: workloads, RPC, KVS, tenants."""

from .framing import TcpMessageFraming
from .kvs import REQUEST_SIZE, KvRequest, KvResponse, KvsClient, KvsServer
from .rpc import RpcClient, RpcRequest, RpcResponse, RpcServer
from .tenants import Tenant, TenantSet
from .workload import (EmpiricalSize, FixedSize, LogUniformSize,
                       MessageWorkload, PoissonArrivals, UniformArrivals,
                       UniformSize, skewed_sizes)

__all__ = [
    "FixedSize", "UniformSize", "LogUniformSize", "EmpiricalSize",
    "skewed_sizes", "PoissonArrivals", "UniformArrivals", "MessageWorkload",
    "RpcServer", "RpcClient", "RpcRequest", "RpcResponse",
    "KvsServer", "KvsClient", "KvRequest", "KvResponse", "REQUEST_SIZE",
    "Tenant", "TenantSet",
    "TcpMessageFraming",
]
