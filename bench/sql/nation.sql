SELECT n_name, r_name
FROM nation, region
WHERE n_regionkey = r_regionkey AND r_name = $1 AND n_nationkey >= $2
ORDER BY n_name
