SELECT sum(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS promo_revenue,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= $1 AND l_shipdate < $2
