select x, count(*), sum(y) from [select * from s] as p where p.y < 2.0 and p.x % 3 <> 1 group by x order by x limit 5
