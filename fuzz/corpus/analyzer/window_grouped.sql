select name, count(*), sum(x), min(y) from [select * from s] as p where p.x >= 1 group by name window size 6 slide 3
