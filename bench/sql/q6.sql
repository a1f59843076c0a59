SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= $1 AND l_shipdate < $2
  AND l_discount BETWEEN $3 AND $4
  AND l_quantity < $5
