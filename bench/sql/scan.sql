SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate
FROM orders
WHERE o_totalprice > $1 AND o_orderdate >= $2
