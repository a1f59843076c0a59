SELECT c_name, c_address, c_phone, c_acctbal
FROM customer
WHERE c_custkey = $1
