SELECT l_orderkey, o_orderdate, o_shippriority,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = $1
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < $2 AND l_shipdate > $2
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
